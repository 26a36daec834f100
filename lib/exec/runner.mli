(** The unified campaign-runner API.

    The pipeline and every baseline expose the same repair-campaign shape —
    build a session from a config, repair each case in order, return one
    {!Rustbrain.Report.t} per case — but historically through three
    incompatible [run_campaign] entry points that bench and the CLI each
    re-wrapped by hand. {!S} names that shape once; a backend is a
    first-class module implementing it, and {!packed} pairs the module with
    a concrete config so heterogeneous backends can ride in one list, one
    scheduler queue, one CLI flag.

    Since the durability layer, {!S} exposes the campaign at *case*
    granularity: a session is created once, then stepped one repair at a
    time. That is what lets the write-ahead journal record every completed
    (job, case) pair as it lands, and lets {!Checkpoint} snapshot the
    session between cases and fast-forward a resumed campaign past the work
    a killed process already finished.

    Campaign state (simulated clock, LLM client, KB/feedback, verification
    cache) lives inside the backend's session, created fresh per campaign: a
    packed runner is therefore safe to run on any domain, and running it
    twice gives byte-identical reports. *)

type stats = {
  cache_hits : int;    (** verification memo-cache hits *)
  cache_misses : int;
  restarts : int;      (** supervisor-replaced worker domains (scheduler) *)
  orphaned_jobs : int; (** jobs a dead worker left behind, finished inline *)
}

val no_stats : stats
val add_stats : stats -> stats -> stats

val hit_rate : stats -> float
(** Hits over total lookups; 0 when the campaign never consulted a cache. *)

module type S = sig
  type config

  type session
  (** All mutable campaign state. Must be a marshalable value (closures
      allowed — snapshots never cross binaries; the campaign fingerprint's
      code-version component rejects them first). *)

  val name : string
  (** Stable backend identifier ("rustbrain", "llm-only", ...). *)

  val default_config : config

  val with_seed : config -> int -> config
  (** The one config field every backend shares; lets generic drivers fan a
      campaign out across seeds without knowing the config's shape. *)

  val seed : config -> int
  (** Read the seed back (journal records carry it). *)

  val create_session : config -> session

  val repair_case : session -> Dataset.Case.t -> Rustbrain.Report.t
  (** One repair; session state (KB, feedback, RNG streams, clock)
      accumulates across calls, in case order. *)

  val session_stats : session -> stats
  (** Cumulative verification-cache traffic so far. *)

  val resumable : session -> bool
  (** Asked of a session just unmarshalled from a snapshot: may it carry
      on in this process? A session is plain data, but it may refer to
      state outside itself — the pipeline's persistent KB is a reference
      to frozen rows on disk (see {!Knowledge.Kb}) — and [false] says that
      state no longer holds what it held when the snapshot was taken. The
      snapshot is then unusable and {!Checkpoint} recomputes the job.
      Backends whose sessions refer to nothing outside answer [true]. *)
end

type packed = Packed : (module S with type config = 'c) * 'c -> packed
(** A backend together with the config it will run; the existential keeps
    per-backend config types out of generic driver code. *)

val pack : (module S with type config = 'c) -> 'c -> packed

val name : packed -> string
val seed : packed -> int
val with_seed : packed -> int -> packed

val fingerprint : packed -> string
(** Hex digest of the backend name and its exact config value; equal
    configs give equal fingerprints within one build of the code. The
    journal manifest combines these with the case list and the code version
    to decide whether a journal may be resumed. *)

val run : packed -> Dataset.Case.t list -> Rustbrain.Report.t list * stats
(** Fresh session, repair each case in order, report verification-cache
    traffic. Deterministic: equal configs and cases give byte-identical
    reports. *)

(** {2 Stepped execution}

    A campaign in flight: the packed module together with its live session.
    This is the granularity the journal and the chaos harness work at. *)

type running =
  | Running :
      (module S with type config = 'c and type session = 's) * 's
      -> running

val start : packed -> running
val step : running -> Dataset.Case.t -> Rustbrain.Report.t
val running_stats : running -> stats

val snapshot : running -> string
(** Marshal the session (with closures; same-binary only — see {!S}). *)

val resume : packed -> string -> packed option
(** [resume packed bytes] is [packed] with its session started from the
    {!snapshot} [bytes] instead of created from the config, or [None] when
    the backend finds the restored session not {!S.resumable}. The caller
    must guarantee the bytes were produced by the same packed backend in
    the same binary (the journal fingerprint enforces this); feeding
    foreign bytes is undefined. *)

val instrumented :
  packed ->
  observe:
    (Dataset.Case.t ->
    Rustbrain.Report.t ->
    stats ->
    snapshot:string Lazy.t ->
    unit) ->
  packed
(** A runner that behaves exactly like [packed] except that after every
    repaired case it calls [observe] with the report, the cumulative
    session stats and the session's {!snapshot} — lazily, so only an
    observer that keeps it (the journal) pays for the marshal, and each
    case marshals its session at most once per observer that forces it.
    Force it before [observe] returns: the next case goes on mutating the
    session the suspension marshals.
    This is the hook {!Checkpoint} uses to journal each case as it
    completes. An exception from [observe] propagates out of the repair
    (this is how the chaos harness simulates a crash mid-campaign). *)

exception Aborted of string
(** Raised by watchdog-guarded runners (see {!guarded}) to stop a campaign
    at a case boundary; the scheduler's crash isolation records it as the
    job's failure, leaving already-journaled cases intact. *)

val guarded : packed -> before:(Dataset.Case.t -> unit) -> packed
(** A runner that behaves exactly like [packed] except that [before] runs
    ahead of every case repair. A [before] that raises (conventionally
    {!Aborted}) cancels the job at the case boundary — the cooperative
    half of the serve layer's runner watchdog: a runner that is slow
    *between* cases is stopped cleanly here; only one hung *inside* a case
    must be abandoned wholesale. *)
