(* Flat-array k-NN by exact scan. See knn.mli for the contract; the
   invariants that matter:

   - scoring reproduces Featvec.cosine bit-for-bit (same accumulation
     order, same final expression), so retrieval results are identical to
     the historical per-entry scan;
   - the result order (score desc, row asc) is total, making ranking
     insertion-stable under ties. *)

type t = {
  dim : int;
  mutable n : int;
  mutable vecs : floatarray;     (* capacity * dim, row-major *)
  mutable sqnorms : floatarray;  (* per row: sum of squares, i ascending *)
}

let create ~dim =
  if dim <= 0 then invalid_arg "Knn.create: dim must be positive";
  { dim; n = 0; vecs = Float.Array.create 0; sqnorms = Float.Array.create 0 }

let dim t = t.dim

let ensure_capacity t =
  let cap = Float.Array.length t.vecs / t.dim in
  if t.n >= cap then begin
    let cap' = max 16 (2 * max 1 cap) in
    let vecs' = Float.Array.make (cap' * t.dim) 0.0 in
    Float.Array.blit t.vecs 0 vecs' 0 (t.n * t.dim);
    t.vecs <- vecs';
    let sq' = Float.Array.make cap' 0.0 in
    Float.Array.blit t.sqnorms 0 sq' 0 t.n;
    t.sqnorms <- sq'
  end

let add t vec =
  if Array.length vec <> t.dim then
    invalid_arg
      (Printf.sprintf "Knn.add: vector has %d components, store holds %d"
         (Array.length vec) t.dim);
  ensure_capacity t;
  let row = t.n in
  let base = row * t.dim in
  let sq = ref 0.0 in
  for i = 0 to t.dim - 1 do
    Float.Array.set t.vecs (base + i) vec.(i);
    sq := !sq +. (vec.(i) *. vec.(i))
  done;
  Float.Array.set t.sqnorms row !sq;
  t.n <- row + 1;
  row

(* -- scoring ----------------------------------------------------------- *)

let query_sqnorm t q =
  if Array.length q <> t.dim then
    invalid_arg
      (Printf.sprintf "Knn: query has %d components, store holds %d"
         (Array.length q) t.dim);
  let na = ref 0.0 in
  for i = 0 to t.dim - 1 do
    na := !na +. (q.(i) *. q.(i))
  done;
  !na

(* One row's cosine against the query, given the query's precomputed square
   norm. Bit-identical to Featvec.cosine: dot and both norms accumulate in
   component order and combine as dot / (sqrt na * sqrt nb). *)
let score_row t q na row =
  let nb = Float.Array.get t.sqnorms row in
  if na = 0.0 || nb = 0.0 then 0.0
  else begin
    let base = row * t.dim in
    let dot = ref 0.0 in
    for i = 0 to t.dim - 1 do
      dot := !dot +. (q.(i) *. Float.Array.get t.vecs (base + i))
    done;
    !dot /. (sqrt na *. sqrt nb)
  end

(* -- top-k selection --------------------------------------------------- *)

(* (score desc, row asc): the one total order of every result. *)
let better s1 r1 s2 r2 = s1 > s2 || (s1 = s2 && r1 < r2)

type heap = {
  k : int;
  mutable m : int;
  hs : float array;  (* insertion-sorted best-first prefix of length m *)
  hr : int array;
}

(* k >= 1 *)
let heap_create k = { k; m = 0; hs = Array.make k 0.0; hr = Array.make k 0 }

let heap_offer h s r =
  if h.m < h.k || better s r h.hs.(h.m - 1) h.hr.(h.m - 1) then begin
    let pos = ref (min h.m (h.k - 1)) in
    while !pos > 0 && better s r h.hs.(!pos - 1) h.hr.(!pos - 1) do
      h.hs.(!pos) <- h.hs.(!pos - 1);
      h.hr.(!pos) <- h.hr.(!pos - 1);
      decr pos
    done;
    h.hs.(!pos) <- s;
    h.hr.(!pos) <- r;
    if h.m < h.k then h.m <- h.m + 1
  end

let heap_hits h = List.init h.m (fun i -> (h.hs.(i), h.hr.(i)))

let search t q ~k =
  if k <= 0 || t.n = 0 then []
  else begin
    let na = query_sqnorm t q in
    let h = heap_create (min k t.n) in
    for row = 0 to t.n - 1 do
      heap_offer h (score_row t q na row) row
    done;
    heap_hits h
  end
