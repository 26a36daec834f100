(** k-nearest-neighbour retrieval kernel over packed feature vectors.

    Vectors live in one flat [floatarray] (row-major, fixed dimension) so a
    scan walks contiguous memory instead of chasing per-entry boxed arrays.
    Two search strategies share one scoring loop and one total result
    order — cosine score descending, then row (insertion order) ascending:

    - {b exact}: score every row.
    - {b indexed}: an inverted index buckets rows by their dominant
      component (for {!Featvec} vectors with a category, that is exactly
      the category one-hot block), with a per-bucket component-wise
      magnitude envelope. Buckets are visited in decreasing upper-bound
      order and the scan stops as soon as the next bucket's bound cannot
      beat the current k-th score — a safe (slightly inflated) bound, so
      indexed results are {e exactly} the exact scan's results, just
      cheaper once one bucket dominates.

    Scores are computed with the same operation order as
    {!Featvec.cosine}, so retrieval is bit-compatible with the historical
    per-pair scan. *)

type t

val create : dim:int -> t
(** Empty store for [dim]-component vectors. *)

val dim : t -> int
val size : t -> int

val add : t -> float array -> int
(** Append a row; returns its row number (dense, monotonic from 0).
    Invalidate any built index. @raise Invalid_argument on a vector whose
    length is not [dim] — callers quarantine before adding. *)

val get : t -> int -> float array
(** Copy of row [i]'s vector. *)

type result = {
  hits : (float * int) list;
      (** (score, row), score descending then row ascending *)
  scanned : int;  (** rows actually scored — the work the query did *)
}

val search_exact : t -> float array -> k:int -> result
(** Top-[k] by full scan. *)

val search_indexed : t -> float array -> k:int -> result
(** Top-[k] through the bucketed index (built lazily, kept until the next
    {!add}). Hits are identical to {!search_exact}'s; [scanned] is the
    number of rows the bound could not prune. *)

val indexed_threshold : int
(** Store size at which {!search} switches to the bucketed index (10^5 —
    below it the flat scan's locality wins). *)

val search : t -> float array -> k:int -> result
(** {!search_exact} below {!indexed_threshold} rows, {!search_indexed} at
    or above it. *)

val freeze : t -> unit
(** Build the bucketed index now if {!search} would use it. Until the
    next {!add}, searches then only read [t], so one store may serve them
    from several domains at once. *)
