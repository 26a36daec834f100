(** k-nearest-neighbour retrieval kernel over packed feature vectors.

    Vectors live in one flat [floatarray] (row-major, fixed dimension) so a
    scan walks contiguous memory instead of chasing per-entry boxed arrays.
    A search scores every row and returns the top [k] in one total order —
    cosine score descending, then row (insertion order) ascending.

    Scores are computed with the same operation order as
    {!Featvec.cosine}, so retrieval is bit-compatible with the historical
    per-pair scan. A search only reads the store, so one store may serve
    searches from several domains at once until the next {!add}. *)

type t

val create : dim:int -> t
(** Empty store for [dim]-component vectors. *)

val dim : t -> int

val add : t -> float array -> int
(** Append a row; returns its row number (dense, monotonic from 0).
    @raise Invalid_argument on a vector whose length is not [dim] —
    callers quarantine before adding. *)

val search : t -> float array -> k:int -> (float * int) list
(** Top-[k] [(score, row)] by full scan, score descending then row
    ascending. *)
