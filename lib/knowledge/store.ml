(* Generic in-memory vector store: Knn holds the packed vectors, this
   module pairs rows with payloads and enforces the dimension discipline.
   Ids are Knn row numbers — dense, monotonic, insertion-ordered — which
   is exactly the tie-break order every query uses. *)

type 'a t = {
  mutable knn : Knn.t option;  (* created on first add (or ?dim) *)
  mutable payloads : 'a array; (* row -> payload; length >= size *)
  mutable n : int;
  mutable quarantined : int;
}

let create ?dim () =
  { knn = Option.map (fun d -> Knn.create ~dim:d) dim;
    payloads = [||]; n = 0; quarantined = 0 }

let size t = t.n
let quarantined t = t.quarantined

let add t vec payload =
  let knn =
    match t.knn with
    | Some k -> k
    | None ->
      let k = Knn.create ~dim:(max 1 (Array.length vec)) in
      t.knn <- Some k;
      k
  in
  if Array.length vec <> Knn.dim knn then
    (* dimension drift is data rot, not a crash: refuse and count *)
    t.quarantined <- t.quarantined + 1
  else begin
    if t.n >= Array.length t.payloads then begin
      let cap = max 16 (2 * max 1 (Array.length t.payloads)) in
      let payloads = Array.make cap payload in
      Array.blit t.payloads 0 payloads 0 t.n;
      t.payloads <- payloads
    end;
    let row = Knn.add knn vec in
    t.payloads.(row) <- payload;
    t.n <- row + 1
  end

let search t vec ~k =
  match t.knn with
  | Some knn when Array.length vec = Knn.dim knn ->
    List.map (fun (s, row) -> (s, row, t.payloads.(row))) (Knn.search knn vec ~k)
  | _ -> []

let query t vec ~k = List.map (fun (s, _, p) -> (s, p)) (search t vec ~k)
