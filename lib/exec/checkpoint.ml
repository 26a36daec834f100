type mode = Fresh | Resume

exception Fingerprint_mismatch of { expected : string; found : string }

type outcome = {
  results : Scheduler.result list;
  supervision : Scheduler.supervision;
  replayed : int;
  recomputed : int;
  dropped : int;
}

(* Snapshots marshal closures, so they are only meaningful inside the
   binary that wrote them; digesting the executable makes a rebuilt binary
   a different campaign. Memoized under a mutex, not [lazy]: [run] is a
   library entry point that callers may make from several domains at once,
   and concurrent [Lazy.force] of one shared suspension raises
   [CamlinternalLazy.Undefined] in every domain that loses the race. *)
let code_version_mx = Mutex.create ()
let code_version_memo = ref None

let code_version () =
  Mutex.protect code_version_mx (fun () ->
      match !code_version_memo with
      | Some v -> v
      | None ->
        let v =
          match Digest.file Sys.executable_name with
          | d -> Digest.to_hex d
          | exception _ -> "unknown-binary"
        in
        code_version_memo := Some v;
        v)

let fingerprint (jobs : Scheduler.job list) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (code_version ());
  List.iter
    (fun (j : Scheduler.job) ->
      Buffer.add_string buf "\x00job\x00";
      Buffer.add_string buf j.label;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf (Runner.fingerprint j.runner);
      Buffer.add_char buf '\x00';
      Buffer.add_string buf (string_of_int (Runner.seed j.runner));
      List.iter
        (fun (c : Dataset.Case.t) ->
          Buffer.add_char buf '\x00';
          Buffer.add_string buf c.Dataset.Case.name)
        j.cases)
    jobs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

(* Per-job resume plan: what to replay, what to run, how to journal it. *)
type plan = {
  original : Scheduler.job;
  sched_job : Scheduler.job;          (* instrumented runner, remainder cases *)
  prefix : Rustbrain.Report.t list;   (* replayed from the journal *)
  planned_recompute : int;
}

let plan_job journal ~records ~snapshots (job : Scheduler.job) =
  let completed =
    List.filter (fun (r : Journal.record) -> r.Journal.job = job.label) records
  in
  let names = List.map (fun (c : Dataset.Case.t) -> c.Dataset.Case.name) job.cases in
  let n_done = List.length completed in
  let total = List.length names in
  (* the journaled cases must be exactly the head of this job's case list —
     guaranteed by the fingerprint, but a hand-edited journal must degrade
     to a recompute, never to misattributed reports *)
  let prefix_ok =
    n_done <= total
    && List.for_all2
         (fun (r : Journal.record) n -> r.Journal.case = n)
         completed (take n_done names)
  in
  let snapshot_bytes =
    if not (prefix_ok && n_done > 0 && n_done < total) then None
    else
      match List.assoc_opt job.label snapshots with
      | Some (count, bytes) when count = n_done -> Some bytes
      | _ -> None
  in
  let resumed = Option.bind snapshot_bytes (Runner.resume job.runner) in
  let fully_replayed = prefix_ok && n_done = total in
  let prefix, remainder, to_check =
    if fully_replayed || Option.is_some resumed then
      (List.map (fun (r : Journal.record) -> r.Journal.report) completed,
       drop n_done job.cases, [])
    else
      (* snapshot missing, stale or refused by the backend (its KB rows
         changed), or foreign records: recompute the whole job from a
         fresh session. Cases already journaled are re-run, not
         re-appended; the journal goes on only while the re-runs
         reproduce its records, so it never holds reports of two sessions
         that disagree — say one on other KB rows — for a later resume to
         stitch together *)
      ([], job.cases, completed)
  in
  let backend = Runner.name job.runner in
  let seed = Runner.seed job.runner in
  (* mutated only by the one domain running this job *)
  let to_check = ref to_check in
  let journaling = ref prefix_ok in
  let observe (case : Dataset.Case.t) report (stats : Runner.stats) ~snapshot =
    match !to_check with
    | (r : Journal.record) :: rest ->
      to_check := rest;
      if
        r.Journal.case <> case.Dataset.Case.name
        || Rustbrain.Report.to_json r.Journal.report <> Rustbrain.Report.to_json report
      then journaling := false
    | [] ->
      if !journaling then
        Journal.append journal
          { Journal.job = job.label; backend; seed;
            case = case.Dataset.Case.name;
            cache_hits = stats.Runner.cache_hits;
            cache_misses = stats.Runner.cache_misses;
            report }
          ~snapshot:(Lazy.force snapshot)
  in
  let runner =
    Runner.instrumented (Option.value resumed ~default:job.runner) ~observe
  in
  { original = job;
    sched_job = { job with Scheduler.runner; cases = remainder };
    prefix;
    planned_recompute = List.length remainder }

let run ?domains ?cancel ?trace ?metrics ?kill_after ~dir ~mode
    (jobs : Scheduler.job list) =
  let fp = fingerprint jobs in
  let manifest =
    { Journal.version = Journal.version;
      fingerprint = fp;
      jobs = List.map (fun (j : Scheduler.job) -> j.Scheduler.label) jobs;
      cases =
        (match jobs with
        | [] -> []
        | j :: _ ->
          List.map (fun (c : Dataset.Case.t) -> c.Dataset.Case.name) j.cases) }
  in
  let journal, prior =
    match mode with
    | Fresh -> (Journal.create ~dir manifest, None)
    | Resume when not (Journal.exists ~dir) -> (Journal.create ~dir manifest, None)
    | Resume -> (
      match Journal.load ~dir with
      | Error e -> failwith e
      | Ok loaded ->
        if loaded.Journal.manifest.Journal.fingerprint <> fp then
          raise
            (Fingerprint_mismatch
               { expected = fp;
                 found = loaded.Journal.manifest.Journal.fingerprint });
        (match Journal.attach ~dir with
        | Error e -> failwith e
        | Ok t -> (t, Some loaded)))
  in
  Option.iter (Journal.kill_after journal) kill_after;
  let records = match prior with Some l -> l.Journal.records | None -> [] in
  let snapshots = match prior with Some l -> l.Journal.snapshots | None -> [] in
  let dropped = match prior with Some l -> l.Journal.dropped | None -> 0 in
  let plans = List.map (plan_job journal ~records ~snapshots) jobs in
  let replayed = List.fold_left (fun n p -> n + List.length p.prefix) 0 plans in
  let planned = List.fold_left (fun n p -> n + p.planned_recompute) 0 plans in
  (* the recovery decision is per-campaign state settled before any domain
     runs, so it is emitted straight to the caller's sink, ahead of the
     folded per-job streams *)
  (match trace with
  | None -> ()
  | Some sink ->
    Obs.Trace.event sink
      ~attrs:
        [ ("mode", Obs.Trace.S (match mode with Fresh -> "fresh" | Resume -> "resume"));
          ("replayed", Obs.Trace.I replayed);
          ("recompute", Obs.Trace.I planned);
          ("dropped", Obs.Trace.I dropped) ]
      "checkpoint");
  (match metrics with
  | None -> ()
  | Some reg ->
    Obs.Metrics.(incr ~by:replayed (counter reg "checkpoint.replayed"));
    Obs.Metrics.(incr ~by:planned (counter reg "checkpoint.recomputed"));
    Obs.Metrics.(incr ~by:dropped (counter reg "checkpoint.dropped")));
  let results, supervision =
    Scheduler.run_jobs ?domains ?cancel ?trace ?metrics
      (List.map (fun p -> p.sched_job) plans)
  in
  let results =
    List.map2
      (fun p (r : Scheduler.result) ->
        { r with Scheduler.job = p.original; reports = p.prefix @ r.reports })
      plans results
  in
  { results;
    supervision;
    replayed;
    recomputed = planned;
    dropped }
