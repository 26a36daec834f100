(** Checkpoint/resume orchestration over the write-ahead {!Journal}.

    {!run} executes a {!Scheduler} job list under a journal directory.
    On a fresh start it records the campaign {!fingerprint} in the
    manifest and journals every completed case; on resume it replays the
    journaled reports, restores each job's session snapshot, and re-runs
    only the remainder — the stitched report list is byte-identical (as
    rendered by [Report.to_json]/[csv_row]) to the uninterrupted run, for
    any kill point at a record boundary and any domain count.

    The fingerprint digests the code version (executable digest), every
    job's label, its runner fingerprint (backend name + config), its seed
    and its case-name list. Anything that could change a report changes
    the fingerprint, and a journal whose manifest disagrees is refused
    ({!Fingerprint_mismatch}) rather than silently replayed into a lying
    result.

    Recovery is conservative where the journal is imperfect: a snapshot
    that is missing, digest-corrupt, or out of step with the surviving
    records for its job (e.g. after a truncated tail) costs a recompute
    of that whole job from a fresh session. A snapshot may also be intact
    but stale: a restored session that its backend finds not
    {!Runner.S.resumable} — a pipeline session whose persistent KB
    reference no longer resolves to the same frozen rows, because the
    rows below its high-water id were replaced — is refused, and its job
    is recomputed the same way, on the rows the store holds now. Rows
    appended past the high-water id do not make a snapshot stale.

    A recompute re-runs the job's journaled cases without re-appending
    them, and journals the rest only if every re-run report equals its
    record byte for byte. With an in-memory KB determinism makes them
    equal, so the journal and the reports stay consistent. A session on
    a persistent KB may see other rows than the run that journaled them
    — replaced rows, or rows that run learned itself — and then nothing
    more of the job is journaled: the next resume recomputes it again
    instead of stitching two sessions' reports together. *)

type mode =
  | Fresh   (** discard any existing journal and start over *)
  | Resume  (** replay an existing journal; start fresh when none exists *)

exception Fingerprint_mismatch of { expected : string; found : string }
(** The journal on disk belongs to a different campaign (or a different
    build). [expected] is this run's fingerprint, [found] the manifest's. *)

type outcome = {
  results : Scheduler.result list;
      (** job order, replayed prefix stitched before recomputed reports *)
  supervision : Scheduler.supervision;
  replayed : int;    (** reports taken from the journal, not re-run *)
  recomputed : int;  (** cases scheduled for (re-)execution this run *)
  dropped : int;     (** corrupt tail records the journal loader discarded *)
}

val fingerprint : Scheduler.job list -> string
(** The campaign fingerprint {!run} will stamp into (and demand from) the
    journal manifest. *)

val run :
  ?domains:int ->
  ?cancel:(unit -> bool) ->
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.registry ->
  ?kill_after:int ->
  dir:string ->
  mode:mode ->
  Scheduler.job list ->
  outcome
(** Execute the jobs journaled under [dir]. [cancel] is the scheduler's
    cooperative stop (see [Scheduler.run_jobs]) — under a watchdog abort
    the journal keeps every case already appended, so a later [Resume]
    continues from the same frontier. [kill_after n] arms the chaos
    self-abort: the journal persists [n] more records, then every job dies
    with [Journal.Killed] (isolated per job by the scheduler — inspect
    [Scheduler.failures], discard the results, and {!run} again with
    [mode = Resume] to recover). Raises {!Fingerprint_mismatch} on a
    foreign journal and [Failure] on an unreadable one. *)
