(* campaign: Exec.Scheduler over the full corpus, one seed-job per seed
   from --seed upwards, on 1 domain with the default rustbrain backend
   (verification cache on, in-memory KB, feedback on). No disk, no socket:
   it isolates the repair engine. The seed-jobs run as short campaigns of
   [round] seeds, each in a fresh process. One domain, because on a
   2-vCPU host two busy domains spread 20% run to run; fresh processes,
   because a few seed-jobs in a hundred grow the heap by up to 100 MB for
   good, so one long-lived process reports whichever it met (see
   README.md). *)

open Common

let domains = 1
let round = 8        (* seed-jobs per Scheduler campaign: 872 case-repairs, about 1 s *)
let max_jobs = 5000  (* bound on the traced loop's queue *)
let slo_ms = 1000.0  (* per seed-job of the 109-case corpus *)

(* -- set-up --------------------------------------------------------------------- *)

(* What a campaign pays before its first repair: process start (runtime
   and corpus initialisation), backend construction and the first
   Exec.Runner.start. The probe is this executable in a child process; it
   prints the wall clock at which its session is ready. *)
let probe_main () =
  let r = Exec.Backends.rustbrain () in
  ignore (Exec.Runner.start (Exec.Runner.with_seed r 1) : Exec.Runner.running);
  Printf.printf "%.6f\n%!" (now ())

let rec reap pid =
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let setup_probe ~exe =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process exe [| exe; "__setup-probe" |] Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  reap pid;
  match float_of_string_opt (String.trim line) with
  | Some t -> t -. t0
  | None -> failwith "setup probe printed no time"

(* -- timed seed-jobs ------------------------------------------------------------- *)

(* Wrap a packed runner so the session's creation and every repair stamp
   the monotonic clock into [times] (newest first); reports are
   untouched. *)
let timed (Exec.Runner.Packed ((module M), cfg)) (times : float list ref) =
  let module W = struct
    include M

    let create_session cfg =
      times := [ mono_ms () ];
      M.create_session cfg

    let repair_case s c =
      let r = M.repair_case s c in
      times := mono_ms () :: !times;
      r
  end in
  Exec.Runner.pack (module W) cfg

(* service time of a seed-job: session creation to its last repair *)
let service_ms times =
  match (times, List.rev times) with
  | last :: _, first :: _ -> last -. first
  | _ -> 0.0

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Re-run [seeds] sequentially on one domain under an Exec.Checkpoint
   journal and compare with the timed run's reports. The journal left on
   disk is what the exec.journal_* layer metrics read. *)
let verify ~dir ~cases runner timed_reports seeds =
  let jdir = Filename.concat dir "journal" in
  let jobs = Exec.Scheduler.seeded_jobs runner ~seeds cases in
  let out = Exec.Checkpoint.run ~domains:1 ~dir:jdir ~mode:Exec.Checkpoint.Fresh jobs in
  let mismatched =
    List.filter_map
      (fun (r : Exec.Scheduler.result) ->
        let seed = Exec.Runner.seed r.Exec.Scheduler.job.Exec.Scheduler.runner in
        let again = List.map Rustbrain.Report.to_json r.Exec.Scheduler.reports in
        if again = List.map Rustbrain.Report.to_json (List.assoc seed timed_reports) then None
        else Some (Printf.sprintf "seed-job %d: sequential 1-domain re-run differs" seed))
      out.Exec.Checkpoint.results
  in
  let files, bytes, snap = journal_usage jdir in
  (mismatched, files, bytes, snap)

let pick_seeds rng completed k =
  let a = Array.of_list completed in
  List.init (min k (Array.length a)) (fun _ -> a.(Rb_util.Rng.int rng (Array.length a)))
  |> List.sort_uniq compare

(* -- untraced: the end-to-end run ----------------------------------------------- *)

(* What a round process sends back: per seed-job its seed, its reports (or
   why it crashed) and its service time in ms; the round's wall and CPU
   seconds; the process's peak resident set. *)
type round_out = {
  jobs : (int * (Rustbrain.Report.t list, string) result * float) list;
  wall_s : float;
  cpu_s : float;
  hwm_kb : int;
}

(* One round in a process of its own, like a `rustbrain campaign` run of
   [count] seeds: one Scheduler campaign of the seed-jobs from seed
   [first] over [cases], sent back marshalled on standard output. The
   first seed-job runs once untimed beforehand, to fill the domain's
   memo of canonical buggy runs as a long campaign has it. *)
let round_main ~first ~count cases =
  let runner = Exec.Backends.rustbrain () in
  ignore (Exec.Scheduler.run_jobs ~domains (Exec.Scheduler.seeded_jobs runner ~seeds:[ first ] cases));
  let clocks = Array.init count (fun _ -> ref []) in
  let jobs =
    List.mapi
      (fun i (j : Exec.Scheduler.job) ->
        { j with Exec.Scheduler.runner = timed j.Exec.Scheduler.runner clocks.(i) })
      (Exec.Scheduler.seeded_jobs runner ~seeds:(List.init count (fun i -> first + i)) cases)
  in
  let cpu0 = cpu_self () and t0 = now () in
  let results, _ = Exec.Scheduler.run_jobs ~domains jobs in
  let wall_s = now () -. t0 and cpu_s = cpu_self () -. cpu0 in
  let jobs =
    List.mapi
      (fun i (res : Exec.Scheduler.result) ->
        ( first + i,
          (match res.Exec.Scheduler.failure with
          | None -> Ok res.Exec.Scheduler.reports
          | Some f ->
            Error
              (Printf.sprintf "%s crashed: %s" res.Exec.Scheduler.job.Exec.Scheduler.label
                 f.Exec.Scheduler.exn)),
          service_ms !(clocks.(i)) ))
      results
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout { jobs; wall_s; cpu_s; hwm_kb = status_kb "self" "VmHWM" } [];
  flush stdout

(* Run one round process and read its result; the process is killed and
   reaped on every way out, an interrupt included. *)
let run_round ~exe ~cases ~first =
  let names = String.concat "," (List.map (fun (c : Dataset.Case.t) -> c.Dataset.Case.name) cases) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "__campaign-round"; string_of_int first; string_of_int round; names |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    (fun () ->
      match (Marshal.from_channel ic : round_out) with
      | out -> Ok out
      | exception (End_of_file | Failure _) ->
        Error (Printf.sprintf "round process for seeds %d.. sent no result" first))

(* One round as the parent saw it: the set-up probe run before it, and
   what its process measured. *)
type round_stat = { setup_s : float; cases_n : int; jobs_n : int; out : round_out }

(* Totals of the seed-jobs run so far; a round's reports are folded in and
   dropped. *)
type totals = {
  mutable ran : int;
  mutable passed : int;
  mutable semantic : int;
  mutable sims : float list;  (* simulated seconds, one per case-repair *)
  mutable lat : float list;   (* service ms, one per seed-job *)
  mutable rounds : round_stat list;
  mutable failures : string list;
  mutable kept : (int * Rustbrain.Report.t list) list;  (* for the re-run check *)
}

let untraced ?(cases = Dataset.Corpus.all) ~exe ~seed ~seconds ~relaxed () =
  let dir = fresh_dir "campaign" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let t =
    { ran = 0; passed = 0; semantic = 0; sims = []; lat = []; rounds = []; failures = []; kept = [] }
  in
  let deadline = now () +. seconds in
  (* a set-up probe and a round process of [round] seed-jobs, again and
     again until the deadline, so set-up is sampled across the whole run
     as the rounds are *)
  let rec rounds r =
    if r = 0 || now () < deadline then begin
      let setup_s = setup_probe ~exe in
      let first = seed + (r * round) in
      (match run_round ~exe ~cases ~first with
      | Error e ->
        t.ran <- t.ran + round;
        t.failures <- List.init round (fun _ -> e) @ t.failures
      | Ok out ->
        let cases_n = ref 0 and jobs_n = ref 0 in
        List.iter
          (fun (s, res, service) ->
            t.ran <- t.ran + 1;
            match res with
            | Error e -> t.failures <- e :: t.failures
            | Ok rs ->
              incr jobs_n;
              t.lat <- service :: t.lat;
              List.iter
                (fun (x : Rustbrain.Report.t) ->
                  incr cases_n;
                  if x.passed then t.passed <- t.passed + 1;
                  if x.semantic then t.semantic <- t.semantic + 1;
                  t.sims <- x.seconds :: t.sims)
                rs;
              if r = 0 then t.kept <- (s, rs) :: t.kept)
          out.jobs;
        t.rounds <- { setup_s; cases_n = !cases_n; jobs_n = !jobs_n; out } :: t.rounds);
      rounds (r + 1)
    end
  in
  rounds 0;
  let vseeds = pick_seeds (Rb_util.Rng.create seed) (List.map fst t.kept) 4 in
  let mismatched, _, _, _ = verify ~dir ~cases (Exec.Backends.rustbrain ()) t.kept vseeds in
  let lat = t.lat in
  let broken = ref [] in
  let pct ~q name xs =
    match e2e_percentile ~relaxed ~p:q name xs with
    | Ok m -> m
    | Error e ->
      broken := !broken @ [ e ];
      metric name "ms" 0.0
  in
  (* Medians over rounds: the host's speed swings by up to 2x for seconds
     at a time, and a median keeps the rounds caught in such a swing from
     moving the result. *)
  let per_round f = if t.rounds = [] then 0.0 else Bench_stats.median (List.map f t.rounds) in
  let per n x = x /. float_of_int (max 1 n) in
  let rate n = per_round (fun r -> float_of_int (n r) /. r.out.wall_s) in
  let note = Printf.sprintf "median of %d rounds" (List.length t.rounds) in
  let met = List.length (List.filter (fun l -> l <= slo_ms) lat) in
  let metrics =
    [ metric ~note "setup_s" "s" (per_round (fun r -> r.setup_s));
      metric ~note "cases_per_s" "case/s" (rate (fun r -> r.cases_n));
      metric ~note "jobs_per_s" "job/s" (rate (fun r -> r.jobs_n));
      pct ~q:50.0 "job_p50_ms" lat;
      pct ~q:90.0 "job_tail_ms" lat;
      metric "slo_met_frac" "fraction" (per t.ran (float_of_int met)) ]
    @ quality_metrics ~passed:t.passed ~semantic:t.semantic ~sim_seconds:t.sims
    @ [ metric ~note "cpu_ms_per_case" "ms"
          (per_round (fun r -> per r.cases_n (1000.0 *. r.out.cpu_s)));
        metric ~note "peak_rss_mb" "MiB" (per_round (fun r -> float_of_int r.out.hwm_kb /. 1024.0)) ]
  in
  outcome ~workload:"campaign" ~seed ~traced:false ~wrong:mismatched ~broken:!broken
    ~attempted:t.ran ~failures:t.failures metrics

(* -- traced: per-layer attribution ------------------------------------------------ *)

type job_run = {
  seed_of : int;
  admit_ms : float;
  submitted : float;
  claimed : float;
  steps : float list;   (* completion times, oldest first *)
  finished : float;
  reports : Rustbrain.Report.t list;
}

type segment = {
  acc : Layers.acc;
  runs : job_run list;
  reactions : float list;  (* a domain's previous job done -> next claimed *)
  wall : float;
  minor_gcs : int;
  major_gcs : int;
}

(* The harness's own [domains]-domain loop over the same seed-jobs, through
   Exec.Runner.start/step so each step can be timed (and, when [traced],
   run under a wall-enabled ambient sink). All jobs are queued at once. *)
let drive runner ~cases ~seed ~seconds ~traced =
  let g0 = Gc.quick_stat () in
  let built =
    Array.init max_jobs (fun i ->
        let b0 = mono_ms () in
        let p = Exec.Runner.with_seed runner (seed + i) in
        (p, mono_ms () -. b0))
  in
  let submitted = mono_ms () in
  let deadline = submitted +. (1000.0 *. seconds) in
  let next = Atomic.make 0 in
  let worker () =
    let acc = Layers.create () in
    let runs = ref [] and reactions = ref [] and last_done = ref nan in
    let rec loop () =
      if mono_ms () < deadline then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < max_jobs then begin
          let packed, admit_ms = built.(i) in
          let claimed = mono_ms () in
          if not (Float.is_nan !last_done) then reactions := (claimed -. !last_done) :: !reactions;
          let running = Exec.Runner.start packed in
          let steps = ref [] in
          let reports =
            List.map
              (fun c ->
                let r =
                  if traced then Layers.traced_step acc running c else Exec.Runner.step running c
                in
                steps := mono_ms () :: !steps;
                r)
              cases
          in
          if traced then Layers.add_job acc reports (Exec.Runner.running_stats running);
          let finished = mono_ms () in
          last_done := finished;
          runs :=
            { seed_of = seed + i; admit_ms; submitted; claimed; steps = List.rev !steps;
              finished; reports }
            :: !runs;
          loop ()
        end
      end
    in
    loop ();
    (acc, !runs, !reactions)
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  let outs = List.map Domain.join ds in
  let wall = mono_ms () -. submitted in
  let g1 = Gc.quick_stat () in
  { acc = List.fold_left (fun a (acc, _, _) -> Layers.merge a acc) (Layers.create ()) outs;
    runs = List.concat_map (fun (_, r, _) -> r) outs;
    reactions = List.concat_map (fun (_, _, x) -> x) outs;
    wall;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections }

let traced ?(cases = Dataset.Corpus.all) ~seed ~seconds () =
  let dir = fresh_dir "campaign" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let runner = Exec.Backends.rustbrain () in
  (* untraced and traced quarters alternate, so neither side gets the
     process's cold start or a quieter stretch of the machine to itself;
     every quarter starts again at [seed], so both sides repair the same
     seed-jobs and their reports can be compared *)
  let segs =
    List.map
      (fun t -> (t, drive runner ~cases ~seed ~seconds:(seconds /. 4.0) ~traced:t))
      [ false; true; false; true ]
  in
  let side t = List.filter_map (fun (t', s) -> if t = t' then Some s else None) segs in
  let total f t = List.fold_left (fun a s -> a + f s) 0 (side t) in
  let wall_of t = List.fold_left (fun a s -> a +. s.wall) 0.0 (side t) in
  let runs_of t = List.concat_map (fun s -> s.runs) (side t) in
  let plain = runs_of false and runs = runs_of true in
  let acc = List.fold_left (fun a s -> Layers.merge a s.acc) (Layers.create ()) (side true) in
  let reactions = List.concat_map (fun s -> s.reactions) (side true) in
  let wall = wall_of true in
  let minor = total (fun s -> s.minor_gcs) true and major = total (fun s -> s.major_gcs) true in
  let cases_of rs = float_of_int (List.fold_left (fun a r -> a + List.length r.reports) 0 rs) in
  let cps_plain = cases_of plain /. wall_of false and cps_traced = cases_of runs /. wall in
  let json rs = List.map Rustbrain.Report.to_json rs in
  let differs =
    List.filter_map
      (fun r ->
        match List.find_opt (fun p -> p.seed_of = r.seed_of) plain with
        | Some p when json p.reports <> json r.reports ->
          Some (Printf.sprintf "seed-job %d: traced reports differ from untraced" r.seed_of)
        | _ -> None)
      runs
  in
  let timed_reports = List.map (fun r -> (r.seed_of, r.reports)) runs in
  let vseeds = pick_seeds (Rb_util.Rng.create seed) (List.map fst timed_reports) 4 in
  let mismatched, jfiles, jbytes, snap = verify ~dir ~cases runner timed_reports vseeds in
  let vcases = List.length vseeds * List.length cases in
  (* no server: the harness's own job loop stands in for one, every
     seed-job being submitted at once and admitted when its runner is built *)
  let clocks =
    List.map
      (fun r ->
        { Bench_stats.due = None; sent = r.submitted -. r.admit_ms; admitted = r.submitted;
          dispatched = r.claimed; cases = r.steps; done_at = r.finished })
      runs
  in
  let step_total = List.fold_left ( +. ) 0.0 acc.Layers.repair_ms in
  let kb_open, kb = Layers.in_memory_kb () in
  let pc x = float_of_int x /. float_of_int (max 1 acc.Layers.cases) in
  let metrics =
    Layers.metrics acc
    @ [ metric "exec.domain_busy_frac" "fraction" (step_total /. (float_of_int domains *. wall));
        metric "ocaml.minor_gcs_per_case" "count" (pc minor);
        metric "ocaml.major_gcs_per_kcase" "count" (1000.0 *. pc major);
        metric "obs.trace_overhead_pct" "%" (100.0 *. (cps_plain -. cps_traced) /. cps_plain);
        metric ~note:(Printf.sprintf "%d journaled re-run cases" vcases)
          "exec.journal_bytes_per_case" "B" (float_of_int jbytes /. float_of_int (max 1 vcases));
        metric "exec.journal_files_per_case" "count" (float_of_int jfiles /. float_of_int (max 1 vcases));
        metric "exec.snapshot_bytes.max" "B" (float_of_int snap);
        metric "serve.busy_frames" "count" 0.0;
        metric "serve.respawns" "count" 0.0;
        metric "serve.state_bytes_per_job" "B"
          (float_of_int jbytes /. float_of_int (max 1 (List.length vseeds))) ]
    @ stage_layers ~ms:1.0 ~unjoined_latency:0.0 clocks
    @ late_layers reactions
    @ Layers.kb_layers ~kb_open (Layers.kb_query_ms kb cases)
  in
  outcome ~workload:"campaign" ~seed ~traced:true ~wrong:(differs @ mismatched) ~broken:[]
    ~attempted:(List.length runs) ~failures:[] metrics
