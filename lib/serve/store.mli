(** Durable accepted-jobs store: the server's source of truth on disk.

    The admission contract is: a job id is sent back as ACCEPTED only
    after its submission record is durable. Every transition is its own
    atomically-written file (via {!Rb_util.Fsfile}, which fsyncs both the
    file and its directory entry), so a server killed with [kill -9] at
    any instant restarts into a consistent state and {!pending} returns
    exactly the accepted-but-unfinished jobs, in admission order.

    Layout under the state directory:
    {v
    queue/job-NNNNNN.json        durable admission record (id, tenant,
                                 backend, case names, wire opts)
    queue/done-NNNNNN.json       completion marker (cases/passed/failed)
    queue/cancelled-NNNNNN.json  cancellation marker
    queue/attempts-NNNNNN.json   crash-counting WAL (started/ended)
    results/job-NNNNNN.jsonl     stitched per-case reports, one
                                 Report.to_json line per case
    jobs/job-NNNNNN/             that job's Exec.Journal directory
    quarantined/job-NNNNNN.json  poison-job quarantine record
    quarantined/corrupt/         records fsck set aside, bytes preserved
    v}

    Queue and quarantine records are written as CRC-checksummed checked
    records ({!Rb_util.Fsfile.write_checked}); a record without the
    header is corrupt. {!fsck} classifies every record — intact / healed /
    torn / corrupt — heals what it can and sets aside what it cannot, and
    {!open_dir} runs it as a startup scrub, so no state-dir damage is ever
    fatal.

    Crash windows are all safe: killed after admission → the job re-runs
    from its journal; killed after results but before the done marker →
    the re-run fully replays from the journal and rewrites byte-identical
    results; markers and results are never ambiguous because each is one
    atomic rename. *)

type submission = {
  id : int;
  tenant : string;
  backend : string;
  cases : string list;          (** resolved case names, campaign order *)
  opts : Exec.Campaign_opts.t;  (** wire subset *)
}

type completion = { cases : int; passed : int; failed : string option }

type quarantine_info = {
  crashes : int;            (** attempts that died before this record *)
  reason : string;
  backtrace : string;       (** last captured backtrace, may be empty *)
  last_case : string option;
      (** final case the runner journaled before dying — triage starts
          with "it died right after this" *)
}

type status =
  | Queued
  | Done of completion
  | Cancelled
  | Quarantined of quarantine_info

type t

val open_dir : ?scrub:bool -> dir:string -> unit -> t
(** Create/scan the state directory; in-memory status mirrors disk.
    [scrub] (default [true]) first runs {!fsck} with healing on — point
    it at a state dir that survived [kill -9] or disk rot and it comes
    up with the damage classified and contained, never an exception. *)

val dir : t -> string

val admit :
  t -> tenant:string -> backend:string -> cases:string list ->
  opts:Exec.Campaign_opts.t -> submission
(** Assign the next id and durably record the submission before returning
    — the caller may acknowledge ACCEPTED the moment this returns. If the
    write fails, its [Sys_error] or [Unix.Unix_error] propagates and the
    store is unchanged: the id stays free and nothing is pending. *)

val pending : t -> submission list
(** Accepted-but-unfinished jobs, admission order. On a fresh {!open_dir}
    this is the restart work list (quarantined jobs excluded). *)

val submission : t -> int -> submission option
val status : t -> int -> status option

val counts : t -> int * int * int * int
(** (queued-or-running, completed, cancelled, quarantined). *)

val cancel : t -> int -> bool
(** Durably cancel a still-queued job; [false] if unknown or past that.
    If the marker write fails, its exception propagates and the job stays
    queued. *)

val write_results : string -> Rustbrain.Report.t list -> unit
(** [write_results path reports] atomically (re)writes the stitched
    results JSONL at [path], a {!results_path}: one [Report.to_json] line
    per report. The one results writer — the worker process calls it
    with the path its Job frame carries. *)

val complete : t -> int -> completion -> unit
(** Durably mark the job finished (and its attempt cleanly ended); call
    after {!write_results}. *)

val read_results : t -> int -> string option

val results_path : t -> int -> string

val journal_dir : t -> int -> string
(** Where this job's {!Exec.Checkpoint} write-ahead journal lives. *)

val progress : t -> int -> int
(** Journaled case-repairs so far (counts the job journal's record
    segments) — live progress that survives a kill. *)

(** {2 Crash accounting}

    A tiny per-job WAL ([queue/attempts-NNNNNN.json]) holding two
    counters: attempts started and attempts cleanly ended. The
    difference is the number of attempts that crashed — a worker process
    dying, a watchdog kill, or the whole server killed with the job in
    flight — and it survives restarts because the record is read back by
    {!open_dir}. *)

val begin_attempt : t -> int -> unit
(** Durably bump the started counter; call before handing the job to a
    worker. *)

val end_attempt : t -> int -> unit
(** Durably mark every started attempt as ended — the attempt concluded
    under the server's control (completion, isolated failure, or
    cancellation), so it was not a crash. *)

val crash_count : t -> int -> int
(** started − ended: attempts that never concluded cleanly. *)

(** {2 Quarantine}

    A job that keeps killing its runner is poison: re-running it forever
    converts one bad input into a crash loop for the whole fleet. Once
    its {!crash_count} reaches the server's threshold it is moved to
    [Quarantined] — durable, excluded from {!pending}, its journal and
    last backtrace preserved for triage. *)

val quarantine : t -> int -> reason:string -> backtrace:string -> quarantine_info
(** Durably quarantine the job, capturing the current crash count and
    the last journaled case. *)

val quarantined : t -> (int * quarantine_info) list
(** All quarantined jobs, id order. *)

(** {2 fsck}

    Classify (and optionally repair) every durable record under a state
    directory. Detected damage and the action taken:
    - checked record with a torn tail or failing CRC → set aside under
      [quarantined/corrupt/] (bytes preserved for triage)
    - verified prefix followed by junk → rewritten clean ([`Healed])
    - stale [.tmp.<pid>] files from interrupted atomic writes → removed
    - results JSONL with a torn trailing line → tail dropped; interior
      rot → whole file set aside
    - garbage journal segment or manifest → set aside so resume
      recomputes from the surviving frontier instead of refusing
    - conflicting done+cancelled markers → completion wins; orphan
      markers (no admission record) → set aside

    Never raises on record damage; healing failures degrade to
    reporting. *)

type fsck_issue = {
  rel_path : string;  (** relative to the state dir *)
  severity : [ `Healed | `Torn | `Corrupt ];
  detail : string;    (** what was wrong *)
  action : string;    (** what fsck did (or would do, in a dry run) *)
}

type fsck_report = {
  scanned : int;      (** records examined *)
  intact : int;       (** checksum-verified (or fully valid) records *)
  issues : fsck_issue list;
}

val fsck : ?heal:bool -> dir:string -> unit -> fsck_report
(** Scan the state directory under [dir]. [heal] (default [true])
    applies the repairs; [heal:false] is a dry run that only reports. *)

val fsck_count : [ `Healed | `Torn | `Corrupt ] -> fsck_report -> int

val severity_label : [ `Healed | `Torn | `Corrupt ] -> string

val fsck_report_to_json : fsck_report -> Rb_util.Json.t
