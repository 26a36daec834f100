(** An in-memory vector store with cosine-similarity retrieval.

    Entries get dense monotonic ids in insertion order, and every query
    ranks by (similarity descending, id ascending) — so equal-score hits
    surface in insertion order, pinned by test, instead of whatever order
    an internal list happened to accumulate. Retrieval is {!Knn}'s
    flat-array exact scan, whose results are bit-compatible with the
    historical per-entry {!Featvec.cosine} scan.

    The store's dimension is fixed by the first vector added (or by
    [?dim]); a vector of any other dimension is {e quarantined} — counted
    and dropped, never silently truncated and never a crash — which is
    what keeps a store coherent once vectors persist across featurization
    versions. *)

type 'a t

val create : ?dim:int -> unit -> 'a t
(** [dim] fixes the dimension up front; otherwise the first {!add} does. *)

val add : 'a t -> float array -> 'a -> unit
(** Append under the next id. A vector whose dimension disagrees with the
    store's is quarantined (see {!quarantined}) and the store is
    unchanged. *)

val size : 'a t -> int

val quarantined : 'a t -> int
(** Entries refused for dimension mismatch since [create]. *)

val search : 'a t -> float array -> k:int -> (float * int * 'a) list
(** Top-[k] entries by cosine similarity as [(similarity, id, payload)],
    best first, ties toward the earlier insertion. A query of another
    dimension than the store's finds nothing. A search writes nothing into
    the store, so one store may serve several domains until the next
    {!add}. *)

val query : 'a t -> float array -> k:int -> (float * 'a) list
(** {!search}'s hits without ids. *)
