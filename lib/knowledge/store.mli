(** An in-memory vector store with cosine-similarity retrieval.

    Entries get dense monotonic ids in insertion order, and every query
    ranks by (similarity descending, id ascending) — so equal-score hits
    surface in insertion order, pinned by test, instead of whatever order
    an internal list happened to accumulate. Retrieval runs on {!Knn}
    (flat-array exact scan; bucketed index on large stores), whose results
    are bit-compatible with the historical per-entry {!Featvec.cosine}
    scan.

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

val dim : 'a t -> int option
(** [None] until the first successful {!add} (or [?dim]). *)

val entries : 'a t -> (int * float array * 'a) list
(** All live entries as [(id, vector, payload)], id ascending. *)

type 'a found = {
  hits : (float * int * 'a) list;
      (** (similarity, id, payload), best first, ties toward the earlier
          insertion *)
  scanned : int;
      (** rows the query actually scored — [size] for an exact scan, fewer
          when the bucketed index pruned; feeds the knowledge base's
          size-dependent simulated-cost model *)
}

val search : 'a t -> float array -> k:int -> 'a found
(** Top-[k] entries by cosine similarity, through the bucketed index on
    stores of {!Knn.indexed_threshold} rows or more ({!Knn.search}). A
    query keeps no state of its own in the store, so one store may serve
    several domains once {!freeze}d. *)

val query : 'a t -> float array -> k:int -> (float * 'a) list
(** {!search}'s hits without ids. *)

val freeze : 'a t -> unit
(** Build the retrieval index now if {!search} would use it
    ({!Knn.freeze}). After this, and until the next {!add}, {!search} and
    {!query} write nothing into the store. *)
