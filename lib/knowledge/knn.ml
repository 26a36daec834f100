(* Flat-array k-NN with an exact scan and an exactly equivalent bucketed
   (inverted) index for large stores. See knn.mli for the contract; the
   invariants that matter:

   - scoring reproduces Featvec.cosine bit-for-bit (same accumulation
     order, same final expression), so retrieval results are identical to
     the historical per-entry scan whatever the strategy;
   - the result order (score desc, row asc) is total, making ranking
     insertion-stable under ties;
   - the index prunes with an upper bound inflated by a relative margin
     that dwarfs float-rounding drift, so pruning can never drop a row the
     exact scan would have returned. *)

type index = {
  buckets : int array array;     (* bucket -> member rows, ascending *)
  envelopes : floatarray array;  (* bucket -> component-wise max of |v̂_i| *)
}

type t = {
  dim : int;
  mutable n : int;
  mutable vecs : floatarray;     (* capacity * dim, row-major *)
  mutable sqnorms : floatarray;  (* per row: sum of squares, i ascending *)
  mutable index : index option;  (* lazily built; dropped on add *)
}

let create ~dim =
  if dim <= 0 then invalid_arg "Knn.create: dim must be positive";
  { dim; n = 0; vecs = Float.Array.create 0; sqnorms = Float.Array.create 0;
    index = None }

let dim t = t.dim
let size t = t.n

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
  t.index <- None;
  row

let get t row =
  if row < 0 || row >= t.n then invalid_arg "Knn.get: row out of range";
  Array.init t.dim (fun i -> Float.Array.get t.vecs ((row * t.dim) + i))

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

(* (score desc, row asc) is the one total order every path shares. *)
let better s1 r1 s2 r2 = s1 > s2 || (s1 = s2 && r1 < r2)

type heap = {
  k : int;
  mutable m : int;
  hs : float array;  (* insertion-sorted best-first prefix of length m *)
  hr : int array;
}

let heap_create k = { k; m = 0; hs = Array.make (max 1 k) 0.0; hr = Array.make (max 1 k) 0 }

let heap_offer h s r =
  if h.k > 0 && (h.m < h.k || better s r h.hs.(h.m - 1) h.hr.(h.m - 1)) then begin
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

let heap_kth_score h = if h.m < h.k then neg_infinity else h.hs.(h.m - 1)

let heap_hits h = List.init h.m (fun i -> (h.hs.(i), h.hr.(i)))

type result = { hits : (float * int) list; scanned : int }

let search_exact t q ~k =
  if k <= 0 || t.n = 0 then { hits = []; scanned = 0 }
  else begin
    let na = query_sqnorm t q in
    let h = heap_create (min k t.n) in
    for row = 0 to t.n - 1 do
      heap_offer h (score_row t q na row) row
    done;
    { hits = heap_hits h; scanned = t.n }
  end

(* -- bucketed index ----------------------------------------------------- *)

(* A row's bucket is its dominant component (first argmax of |v_i|); rows
   that are all zeros go to bucket [dim]. For Featvec vectors carrying a
   category this is exactly the category one-hot slot — the category
   signal (|2.0| before normalization) always beats any hashed-block
   component — so the index degenerates to a per-category inverted index
   without knowing anything about Featvec's layout. *)
let bucket_of t row =
  let base = row * t.dim in
  let best = ref (-1) and best_v = ref 0.0 in
  for i = 0 to t.dim - 1 do
    let v = Float.abs (Float.Array.get t.vecs (base + i)) in
    if v > !best_v then begin
      best := i;
      best_v := v
    end
  done;
  if !best < 0 then t.dim else !best

let build_index t =
  let nb = t.dim + 1 in
  let counts = Array.make nb 0 in
  let assignment = Array.init t.n (fun row -> bucket_of t row) in
  Array.iter (fun b -> counts.(b) <- counts.(b) + 1) assignment;
  let buckets = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make nb 0 in
  Array.iteri
    (fun row b ->
      buckets.(b).(fill.(b)) <- row;
      fill.(b) <- fill.(b) + 1)
    assignment;
  (* component-wise envelope of the *unit* vectors per bucket: an upper
     bound for dot(q̂, v̂) over the bucket is sum_i |q̂_i| * envelope_i *)
  let envelopes =
    Array.map
      (fun rows ->
        let env = Float.Array.make t.dim 0.0 in
        Array.iter
          (fun row ->
            let nbm = Float.Array.get t.sqnorms row in
            if nbm > 0.0 then begin
              let inv = 1.0 /. sqrt nbm in
              let base = row * t.dim in
              for i = 0 to t.dim - 1 do
                let v = Float.abs (Float.Array.get t.vecs (base + i)) *. inv in
                if v > Float.Array.get env i then Float.Array.set env i v
              done
            end)
          rows;
        env)
      buckets
  in
  let idx = { buckets; envelopes } in
  t.index <- Some idx;
  idx

let indexed_threshold = 100_000

(* Upper bound on dot(q̂, v̂) over any unit vector v̂ with |v̂_i| ≤ env_i:
   the exact maximum of the relaxation

     max Σ a_i x_i   s.t.  0 ≤ x_i ≤ env_i,  Σ x_i² ≤ 1,   a_i = |q̂_i|.

   (The naive Σ a_i env_i is useless at this dimensionality — across ~50
   components it sums past 1.0, above every cosine, and prunes nothing.)
   The KKT solution is x_i = min(env_i, a_i / λ) with λ chosen so the mass
   Σ x_i² hits 1; mass is decreasing in λ and mass(1) ≤ Σ a_i² = 1, so λ*
   lives in (0, 1] and bisection finds it. We evaluate at the ≥1-mass end
   of the bracket: value is decreasing in λ and λ_lo ≤ λ*, so the result
   is ≥ the true maximum — the bound stays safe whatever the bisection
   error. *)
let bucket_bound t q inv_qn env =
  let walk lam =
    let v = ref 0.0 and m = ref 0.0 in
    for i = 0 to t.dim - 1 do
      let a = Float.abs q.(i) *. inv_qn in
      let c = Float.Array.get env i in
      let x = if lam <= 0.0 then c else Float.min c (a /. lam) in
      v := !v +. (a *. x);
      m := !m +. (x *. x)
    done;
    (!v, !m)
  in
  let v0, m0 = walk 0.0 in
  if m0 <= 1.0 then v0
  else begin
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 40 do
      let mid = 0.5 *. (!lo +. !hi) in
      let _, m = walk mid in
      if m >= 1.0 then lo := mid else hi := mid
    done;
    fst (walk !lo)
  end

let search_indexed t q ~k =
  if k <= 0 || t.n = 0 then { hits = []; scanned = 0 }
  else begin
    let idx = match t.index with Some i -> i | None -> build_index t in
    let na = query_sqnorm t q in
    if na = 0.0 then
      (* every score is 0 by definition; ties resolve to the lowest rows,
         exactly what the exact scan returns *)
      { hits = List.init (min k t.n) (fun i -> (0.0, i)); scanned = 0 }
    else begin
      let inv_qn = 1.0 /. sqrt na in
      let nb = Array.length idx.buckets in
      (* per-bucket upper bound on any member's score, inflated by a
         relative margin far above the rounding drift of a dim-term sum so
         the bound is safe against float reassociation *)
      let bounds =
        Array.init nb (fun b ->
            if Array.length idx.buckets.(b) = 0 then neg_infinity
            else
              (bucket_bound t q inv_qn idx.envelopes.(b) *. (1.0 +. 1e-9))
              +. 1e-12)
      in
      let order = Array.init nb (fun b -> b) in
      Array.sort
        (fun a b ->
          match compare bounds.(b) bounds.(a) with 0 -> compare a b | c -> c)
        order;
      let h = heap_create (min k t.n) in
      let scanned = ref 0 in
      (try
         Array.iter
           (fun b ->
             let rows = idx.buckets.(b) in
             if Array.length rows > 0 then begin
               (* buckets come bound-descending: once one cannot beat the
                  k-th score, none after it can either *)
               if h.m >= h.k && bounds.(b) < heap_kth_score h then raise Exit;
               Array.iter
                 (fun row ->
                   incr scanned;
                   heap_offer h (score_row t q na row) row)
                 rows
             end)
           order
       with Exit -> ());
      { hits = heap_hits h; scanned = !scanned }
    end
  end

let freeze t =
  if t.n >= indexed_threshold && t.index = None then ignore (build_index t : index)

let search t q ~k =
  if t.n >= indexed_threshold then search_indexed t q ~k
  else search_exact t q ~k
