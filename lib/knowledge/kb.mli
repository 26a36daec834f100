(** The abstract-reasoning agent's knowledge base.

    Entries pair an error-prone AST-sketch vector with repair advice: the
    recommended fix class and a textual hint. Retrieval is similarity search
    over pruned-AST vectors ({!Featvec}); hits contribute a prompt section
    (raising prompt quality) and a perceived-quality bias toward the
    recommended fix class. Querying and learning both charge simulated time,
    which reproduces the paper's observation that the KB costs 2-4x overhead
    (Fig. 7, Table I's "knowledge" column).

    A knowledge base is either {e in-memory} ({!create}: private to the
    session, seeded by {!seed_default}) or {e persistent} ({!open_dir}: a
    {!Segment} store on disk, shared across campaigns and serve tenants).
    A persistent KB is {e frozen at open}: queries see the rows loaded
    from disk for the whole session — so seeded campaigns stay
    deterministic however many learns happen meanwhile — while {!learn}
    appends durably for {e future} sessions to retrieve.

    The handle stays Marshal-safe and small (sessions are snapshotted with
    [Marshal] after every journaled case): a persistent [t] is a
    {e reference} to its frozen rows — the store directory, the high-water
    id below which the rows were frozen, and a digest of those rows' ids,
    vectors and payloads in row order — never the rows. The rows, as one
    read-only query store per (process, directory, high-water id), and the
    writer's file descriptors and lock live in a process-global registry.
    A session unmarshalled in another process resolves its reference
    there: {!resolves} tells whether the rows below the high-water id still
    digest the same (rows appended since do not matter). *)

type entry = {
  category : Miri.Diag.ub_kind;
  advice : string;
  recommended : Repairs.Rule.fix_kind;
}

type t

val create : clock:Rb_util.Simclock.t -> unit -> t
(** An empty in-memory KB charging its {!query}s to [clock]. *)

val open_dir :
  ?readonly:bool ->
  dir:string ->
  clock:Rb_util.Simclock.t ->
  unit ->
  (t, string) result
(** Open the persistent KB at [dir]. A missing or empty store is created
    and seeded with the {!seed_default} entries when writable ([readonly]
    defaults to [false]); read-only opens never write, skip the scrub, and
    fail if the directory does not exist. Entries whose vectors disagree
    with this build's {!Featvec} stamp are quarantined by the segment
    store, not loaded and not a crash. *)

val seed_default : t -> unit
(** Install the built-in per-category expertise entries (in-memory KBs;
    persistent stores are seeded once at creation by {!open_dir}). *)

val learn : t -> float array -> entry -> unit
(** Add an entry under a sketch vector (used by S3 self-learning).
    In-memory KBs retrieve it immediately; persistent KBs append it
    durably for future sessions (the open snapshot is frozen) and drop it
    silently when read-only. *)

val size : t -> int
(** Entries visible to {!query} (the frozen snapshot, for persistent). *)

val quarantined : t -> int
(** Entries refused for a dimension/version mismatch. *)

val persistent_dir : t -> string option
(** The backing store directory, when {!open_dir} made this KB. *)

val resolves : t -> bool
(** Whether [t]'s frozen rows can still be queried in this process: true
    for an in-memory KB; for a persistent one, true when the rows below
    its high-water id — as this process sees them, read from disk if it
    has not read that far yet — digest as they did at open. {!query},
    {!size} and {!quarantined} raise [Failure] on a persistent KB that
    does not resolve. *)

val max_hits : int
(** Queries return at most this many hits (8). *)

val query : t -> float array -> (float * entry) list
(** The best [max_hits] matches above similarity 0.35, best first; equal
    scores tie-break toward the earlier entry. Every query scores every
    row, and charges 3.0 simulated seconds plus 0.05 per row ({!size}) —
    the paper's Fig. 7 observes that the knowledge base buys accuracy at
    2-4x overhead growing with its size. *)

val hints_text : (float * entry) list -> string
(** Render hits as a prompt section. *)

val kind_bias : (float * entry) list -> (string * float) list
(** Perceived-quality bias per fix-class, derived from hit similarity.
    The list is canonically ordered (declaration order of
    {!Repairs.Rule.fix_kind}, zero-contribution classes dropped), so the
    bias a downstream agent folds over never depends on which hit happened
    to arrive last. *)

(** {2 Entry codec}

    The JSON payload stored per segment record; exposed for the [kb-*]
    CLI tools and tests. *)

val entry_to_json : entry -> Rb_util.Json.t
val entry_of_json : Rb_util.Json.t -> entry option
