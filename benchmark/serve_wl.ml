(* serve-small and serve-kb: the real `rustbrain serve` (worker-pool mode,
   2 runners) driven over two connections by Serve_load. Every CASE frame
   is checked against Report.to_json of an in-process Exec.Runner run of
   the same (case list, seed), computed before the clock starts. *)

open Common
module L = Serve_load

let tenants = [ "t0"; "t1" ]
let runners = 2

(* A job: its repair seed and case list. Every job runs a single seed. *)
type spec = int * Dataset.Case.t list

let case_names = List.map (fun (c : Dataset.Case.t) -> c.Dataset.Case.name)
let key seed names = Printf.sprintf "%d:%s" seed (String.concat "," names)
let spec_key ((seed, cases) : spec) = key seed (case_names cases)

let runner ?kb_dir () =
  match
    Exec.Campaign_opts.runner
      { Exec.Campaign_opts.default with Exec.Campaign_opts.kb_dir; kb_readonly = kb_dir <> None }
      ~backend:"rustbrain"
  with
  | Ok r -> r
  | Error e -> failwith e

(* One job's reports from a fresh session. For layer timing ([fresh]) the
   session also runs in a fresh domain, as a worker process is fresh per
   job attempt and so starts with a cold verification memo. OCaml refuses
   Unix.fork once any domain has existed, so domains are only created
   after the last server has been spawned. *)
let run_list ?acc ~fresh packed ((seed, cases) : spec) =
  let go () =
    let running = Exec.Runner.start (Exec.Runner.with_seed packed seed) in
    let step =
      match acc with None -> Exec.Runner.step running | Some a -> Layers.traced_step a running
    in
    let reports = List.map step cases in
    Option.iter (fun a -> Layers.add_job a reports (Exec.Runner.running_stats running)) acc;
    reports
  in
  if fresh then Domain.join (Domain.spawn go) else go ()

type reference = { json : string array; reports : Rustbrain.Report.t list }

(* Reference reports for every distinct job, plus the wall time it took. *)
let references ?acc ?(fresh = false) packed specs =
  let tbl = Hashtbl.create 64 in
  let t0 = mono_ms () in
  List.iter
    (fun spec ->
      let k = spec_key spec in
      if not (Hashtbl.mem tbl k) then begin
        let reports = run_list ?acc ~fresh packed spec in
        Hashtbl.replace tbl k
          { json = Array.of_list (List.map Rustbrain.Report.to_json reports); reports }
      end)
    specs;
  (tbl, mono_ms () -. t0)

(* Seeded draws that cycle through whole shuffles of [pool], so every run
   sees each case equally often whatever its seed. *)
let shuffled_stream rng pool =
  let cur = ref [] in
  fun () ->
    (match !cur with [] -> cur := Rb_util.Rng.shuffle rng pool | _ -> ());
    match !cur with
    | c :: rest ->
      cur := rest;
      c
    | [] -> assert false

(* -- one serve run ---------------------------------------------------------------- *)

type run = {
  setup : float list;
  jobs : L.job list;          (* every job the generator started *)
  phases : (string * L.job list * float) list;  (* name, jobs, start *)
  reactions : float list;     (* closed-loop DONE -> next SUBMIT, s *)
  cpu_s : float;
  rss_peak_kb : int;
  busy_frames : int;
  respawns : int;
  events : (int, float option * float list) Hashtbl.t;
  state_bytes : int;
  journal_files : int;
  journal_bytes : int;
  snapshot_max : int;
  problems : string list;
}

let child_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* the per-job journals under the server's state dir, summed *)
let journals_usage state =
  let jobs = Filename.concat state "jobs" in
  List.fold_left
    (fun (files, bytes, snap) j ->
      let f, b, s = journal_usage (Filename.concat jobs j) in
      (files + f, bytes + b, max snap s))
    (0, 0, 0) (list_dir jobs)

(* Spawn the measured server, run [drive g probe] against two
   connections, shut down, and collect what the run left on disk. [drive]
   calls [probe n] between its phases, while no job is outstanding, to
   time [n] set-ups: spread over the run, they sample the host as the load
   does. Their CPU is kept out of the server's. *)
let serve_run ~cli ~dir ?kb_dir ~traced ~job_timeout_s drive =
  let setup = ref [] and probe_cpu = ref 0.0 in
  let probe n =
    let c0 = child_cpu () in
    let ts =
      List.map
        (function Ok t -> t | Error e -> failwith ("setup probe: " ^ e))
        (L.setup_probes ~cli ~dir ?kb_dir ~n ())
    in
    probe_cpu := !probe_cpu +. (child_cpu () -. c0);
    setup := !setup @ ts
  in
  let sdir = Filename.concat dir "main" in
  Unix.mkdir sdir 0o755;
  let cpu0 = child_cpu () in
  let srv = L.spawn ~cli ~dir:sdir ?kb_dir ~traced () in
  let stopped = ref None in
  let stop () =
    match !stopped with
    | Some p -> p
    | None ->
      let p = L.stop srv in
      stopped := Some p;
      p
  in
  Fun.protect ~finally:(fun () -> ignore (stop ()))
  @@ fun () ->
  let fds =
    List.map (fun _ -> match L.connect srv with Ok fd -> fd | Error e -> failwith e) tenants
  in
  let g = L.create srv ~fds ~tenants ~job_timeout_s in
  let phases, reactions, lost =
    match drive g probe with
    | phases, reactions -> (phases, reactions, [])
    | exception L.Lost e -> ([], [], [ e ])
  in
  List.iter Unix.close fds;
  let respawns = L.respawns srv in
  let stop_problems = stop () in
  let cpu_s = child_cpu () -. cpu0 -. !probe_cpu in
  let state = Filename.concat sdir "state" in
  let state_bytes = du state in
  let journal_files, journal_bytes, snapshot_max = journals_usage state in
  let events =
    match srv.L.trace_file with Some f -> L.trace_events f | None -> Hashtbl.create 1
  in
  { setup = !setup; jobs = List.concat_map (fun (_, js, _) -> js) phases; phases; reactions; cpu_s;
    rss_peak_kb = g.L.rss_peak_kb; busy_frames = g.L.busy_frames;
    respawns = Option.value ~default:0 respawns; events; state_bytes;
    journal_files; journal_bytes; snapshot_max;
    problems =
      lost @ stop_problems
      @ if respawns = None then [ "no HEALTH answer after the load" ] else [] }

let done_jobs = List.filter (fun (j : L.job) -> j.L.status = L.Done)
let failures jobs =
  List.filter_map (fun (j : L.job) -> match j.L.status with L.Failed m -> Some m | _ -> None) jobs

let last_done jobs t0 = List.fold_left (fun a (j : L.job) -> Float.max a j.L.done_at) t0 jobs

let served_cases jobs =
  List.fold_left (fun a (j : L.job) -> a + Array.length j.L.expected) 0 (done_jobs jobs)

(* (jobs/s, cases/s) over closed-loop segments, each (jobs, t0): it began
   at [t0] and ended with its last DONE *)
let throughput segments =
  let n, cases, secs =
    List.fold_left
      (fun (n, cases, secs) (jobs, t0) ->
        let ok = done_jobs jobs in
        (n + List.length ok, cases + served_cases jobs, secs +. Float.max 1e-6 (last_done ok t0 -. t0)))
      (0, 0, 0.0) segments
  in
  (float_of_int n /. secs, float_of_int cases /. secs)

(* Repair quality of the distinct jobs served, each counted once: a served
   job's reports equal its reference (checked), so this is a function of
   the workload's inputs, not of how many repeats fitted in the run. *)
let quality refs jobs =
  let seen = Hashtbl.create 64 in
  List.iter (fun (j : L.job) -> Hashtbl.replace seen (key j.L.seed j.L.cases) ()) (done_jobs jobs);
  report_quality (Hashtbl.fold (fun k () acc -> (Hashtbl.find refs k).reports @ acc) seen [])

(* -- per-layer serve metrics ------------------------------------------------------- *)

let serve_layers r ~wall =
  let ok = done_jobs r.jobs in
  let joined = List.map (fun j -> (j, L.job_clock r.events j)) ok in
  let clocks = List.filter_map snd joined in
  let unjoined_latency =
    List.fold_left
      (fun a ((j : L.job), c) ->
        if c = None then a +. (j.L.done_at -. Option.value ~default:j.L.sent j.L.due) else a)
      0.0 joined
  in
  (* runner slots are busy from dispatch to DONE *)
  let busy =
    List.fold_left (fun a (c : Bench_stats.job_clock) -> a +. (c.done_at -. c.dispatched)) 0.0 clocks
  in
  let late =
    match List.filter_map (fun (j : L.job) -> Option.map (fun d -> j.L.sent -. d) j.L.due) r.jobs with
    | [] -> r.reactions
    | l -> l
  in
  stage_layers ~ms:1000.0 ~unjoined_latency clocks
  @ late_layers (List.map (fun x -> 1000.0 *. x) late)
  @ [ metric "serve.busy_frames" "count" (float_of_int r.busy_frames);
      metric "serve.respawns" "count" (float_of_int r.respawns);
      metric "serve.state_bytes_per_job" "B"
        (float_of_int r.state_bytes /. float_of_int (max 1 (List.length r.jobs)));
      metric "exec.domain_busy_frac" "fraction" (busy /. (float_of_int runners *. wall)) ]

let journal_layers r ~cases =
  let pc x = float_of_int x /. float_of_int (max 1 cases) in
  [ metric "exec.journal_bytes_per_case" "B" (pc r.journal_bytes);
    metric "exec.journal_files_per_case" "count" (pc r.journal_files);
    metric "exec.snapshot_bytes.max" "B" (float_of_int r.snapshot_max) ]

let gc_counts f =
  let g0 = Gc.quick_stat () in
  let x = f () in
  let g1 = Gc.quick_stat () in
  (x, g1.Gc.minor_collections - g0.Gc.minor_collections, g1.Gc.major_collections - g0.Gc.major_collections)

(* Engine layers of the workload's own job lists, traced in-process, and
   the untraced vs traced cost of the same work; the traced reports must
   be byte-identical to the untraced ones. *)
let engine_layers packed lists =
  (* untraced and traced passes alternate, as in the campaign, so the
     process's cold start is not charged to one side *)
  let acc = Layers.create () in
  let pass traced = gc_counts (fun () -> references ?acc:(if traced then Some acc else None) ~fresh:true packed lists) in
  let passes = List.map (fun t -> (t, pass t)) [ false; true; false; true ] in
  let side t = List.filter_map (fun (t', p) -> if t = t' then Some p else None) passes in
  let total t = List.fold_left (fun a ((_, ms), _, _) -> a +. ms) 0.0 (side t) in
  let untraced_ms = total false and traced_ms = total true in
  let minor = List.fold_left (fun a (_, m, _) -> a + m) 0 (side true) in
  let major = List.fold_left (fun a (_, _, m) -> a + m) 0 (side true) in
  let (plain, _), _, _ = List.hd (side false) and (refs, _), _, _ = List.hd (side true) in
  let differs =
    Hashtbl.fold (fun k r n -> if (Hashtbl.find plain k).json <> r.json then n + 1 else n) refs 0
  in
  let pc x = float_of_int x /. float_of_int (max 1 acc.Layers.cases) in
  ( (if differs > 0 then [ Printf.sprintf "%d traced job(s) differ from untraced" differs ] else []),
    Layers.metrics acc
    @ [ metric "ocaml.minor_gcs_per_case" "count" (pc minor);
        metric "ocaml.major_gcs_per_kcase" "count" (1000.0 *. pc major);
        (* as a loss of throughput, like the campaign's *)
        metric "obs.trace_overhead_pct" "%" (100.0 *. (traced_ms -. untraced_ms) /. traced_ms) ] )

(* -- workloads ------------------------------------------------------------------- *)

type small_plan = {
  s_probes : int;
  phase_a_s : float;   (* closed loop, 2 outstanding per connection *)
  rate : float;        (* open loop, jobs/s *)
  phase_b_jobs : int;
  segments : int;      (* the two phases alternate this many times *)
  relaxed : bool;      (* smoke scale: percentiles may fall back to the tail *)
}

let slo_s = 0.100
let small_seed = 1

(* The two cases that take ~80% of campaign wall time; without them a
   1-case job's repair work stays below ~1 ms and per-job fixed costs
   dominate. *)
let small_excluded = [ "dr_flag_spin"; "al_ring_buffer_modules" ]

(* Metrics common to both serve workloads, and the outcome. [lat] are the
   latencies (ms) percentiles are taken over, [slo_ok] how many jobs met
   the latency limit out of [slo_of]. *)
let serve_outcome ~workload ~seed ~traced ~relaxed ~refs ~packed ~specs ~kb (r : run) ~a0
    ~throughput:(jobs_per_s, cases_per_s) ~lat ~tail_p ~slo_ok ~slo_of ~broken =
  let ncases = served_cases r.jobs in
  let broken = ref (r.problems @ broken) and wrong = ref [] in
  let pct ~q name xs =
    match e2e_percentile ~relaxed ~p:q name xs with
    | Ok m -> m
    | Error e ->
      broken := !broken @ [ e ];
      metric name "ms" 0.0
  in
  let metrics =
    if traced then begin
      let differs, layer = engine_layers packed specs in
      wrong := differs;
      let kb_open, kb = kb () in
      layer
      @ journal_layers r ~cases:ncases
      @ serve_layers r ~wall:(last_done r.jobs a0 -. a0)
      @ Layers.kb_layers ~kb_open (Layers.kb_query_ms kb (List.concat_map snd specs))
    end
    else
      [ metric ~note:(Printf.sprintf "median of %d" (List.length r.setup)) "setup_s" "s"
          (Bench_stats.median r.setup);
        metric "cases_per_s" "case/s" cases_per_s;
        metric "jobs_per_s" "job/s" jobs_per_s;
        pct ~q:50.0 "job_p50_ms" lat;
        pct ~q:tail_p "job_tail_ms" lat;
        metric "slo_met_frac" "fraction" (float_of_int slo_ok /. float_of_int (max 1 slo_of)) ]
      @ quality refs r.jobs
      @ [ metric "cpu_ms_per_case" "ms" (1000.0 *. r.cpu_s /. float_of_int (max 1 ncases));
          metric "peak_rss_mb" "MiB" (float_of_int r.rss_peak_kb /. 1024.0) ]
  in
  (* a job whose frames fail an output check is both a failure and wrong *)
  let fails = failures r.jobs in
  let wrong_jobs = List.filter (String.starts_with ~prefix:"output") fails in
  outcome ~workload ~seed ~traced
    ~wrong:
      (!wrong
      @
      if wrong_jobs = [] then []
      else [ Printf.sprintf "%d job(s) failed an output check" (List.length wrong_jobs) ])
    ~broken:!broken ~attempted:(List.length r.jobs) ~failures:fails metrics

let small_pool =
  List.filter
    (fun (c : Dataset.Case.t) -> not (List.mem c.Dataset.Case.name small_excluded))
    Dataset.Corpus.all

let serve_small ?(pool = small_pool) ~cli ~seed ~traced (p : small_plan) =
  let dir = fresh_dir "serve-small" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let packed = runner () in
  let specs = List.map (fun c -> (small_seed, [ c ])) pool in
  let refs, _ = references packed specs in
  let draw = shuffled_stream (Rb_util.Rng.create seed) pool in
  let job ~conn ?due () =
    let c = draw () in
    L.make_job ~conn ~seed:small_seed ~cases:[ c.Dataset.Case.name ]
      ~expected:(Hashtbl.find refs (spec_key (small_seed, [ c ]))).json ?due ()
  in
  let r =
    serve_run ~cli ~dir ~traced ~job_timeout_s:30.0 (fun g probe ->
        (* set-up probes, a closed-loop segment and an open-loop one,
           [segments] times: the host's speed swings for seconds at a time,
           and alternating spreads every phase over the whole run *)
        let a_s = p.phase_a_s /. float_of_int p.segments in
        let share total k = (total * (k + 1) / p.segments) - (total * k / p.segments) in
        let rec segment k phases reactions =
          if k = p.segments then (List.rev phases, reactions)
          else begin
            probe (share p.s_probes k);
            let t0 = now () in
            let a, re =
              L.closed_loop g ~depth:2
                ~continue:(fun () -> now () < t0 +. a_s)
                ~next:(fun conn -> job ~conn ())
            in
            let t1 = now () +. 0.05 in
            let b =
              L.open_loop g
                (List.init (share p.phase_b_jobs k) (fun i -> job ~conn:(i mod 2) ~due:(t1 +. (float_of_int i /. p.rate)) ()))
            in
            segment (k + 1) (("B", b, t1) :: ("A", a, t0) :: phases) (re @ reactions)
          end
        in
        segment 0 [] [])
  in
  let phase name = List.filter_map (fun (n, js, t0) -> if n = name then Some (js, t0) else None) r.phases in
  let a_segments = phase "A" in
  let b = List.concat_map fst (phase "B") and a0 = snd (List.hd a_segments) in
  let from_due (j : L.job) =
    Bench_stats.open_loop_latency ~due:(Option.get j.L.due) ~done_at:j.L.done_at
  in
  let lat = List.map (fun j -> 1000.0 *. from_due j) (done_jobs b) in
  let late_ms =
    List.map (fun (j : L.job) -> 1000.0 *. Bench_stats.lateness ~due:(Option.get j.L.due) ~sent:j.L.sent) b
  in
  (* the open loop is valid only if the generator kept to its schedule *)
  let late_problem =
    match Bench_stats.tail late_ms with
    | Some (q, v) when v > 5.0 && not p.relaxed ->
      [ Printf.sprintf "load generator ran late: p%.1f lateness %.2f ms > 5 ms" q v ]
    | _ -> []
  in
  serve_outcome ~workload:"serve-small" ~seed ~traced ~relaxed:p.relaxed ~refs ~packed ~specs
    ~kb:Layers.in_memory_kb r ~a0
    ~throughput:(throughput a_segments) ~lat ~tail_p:90.0
    ~slo_ok:(List.length (List.filter (fun j -> from_due j <= slo_s) (done_jobs b)))
    ~slo_of:(List.length b) ~broken:late_problem

type kb_plan = {
  k_probes : int;
  entries : int;      (* synthetic entries per tenant slice *)
  list_len : int;
  seconds : float;    (* closed loop length *)
  k_relaxed : bool;   (* smoke scale: percentiles may fall back to the tail *)
}

(* about 3x the median 8-case job, so the share met moves with the tail,
   not with how busy the machine is *)
let kb_slo_s = 2.0
let kb_seeds = [ 1; 2; 3; 4 ]

(* A seeded shuffle of the full corpus cut into lists of [len] cases (the
   last one shorter), so one pass over the lists repairs every case once
   whatever the seed. A list never names a case twice: the server numbers
   CASE frames by case name, so a repeated case would stream two reports
   under one seq. *)
let kb_lists rng ~len pool =
  let rec chunks = function
    | [] -> []
    | l -> List.filteri (fun i _ -> i < len) l :: chunks (List.filteri (fun i _ -> i >= len) l)
  in
  chunks (Rb_util.Rng.shuffle rng pool)

let serve_kb ?(pool = Dataset.Corpus.all) ~cli ~seed ~traced (p : kb_plan) =
  let dir = fresh_dir "serve-kb" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  let root = Filename.concat dir "kb" in
  let scratch = Filename.concat dir "kb-seed" in
  ignore (Kb_slice.build ~seed ~entries:p.entries ~scratch ~root ~tenants : int);
  let slice = Filename.concat root (List.hd tenants) in
  (* the first read-only open of a slice in this process, before the
     references below reuse its snapshot *)
  let t0 = mono_ms () in
  let kb =
    match Knowledge.Kb.open_dir ~readonly:true ~dir:slice ~clock:(Rb_util.Simclock.create ()) () with
    | Ok kb -> kb
    | Error e -> failwith ("opening the slice: " ^ e)
  in
  let kb_open = mono_ms () -. t0 in
  let lists = kb_lists (Rb_util.Rng.create seed) ~len:p.list_len pool in
  (* every list under each repair seed: quality is then averaged over four
     sessions per case, not one *)
  let specs = List.concat_map (fun s -> List.map (fun l -> (s, l)) lists) kb_seeds in
  let packed = runner ~kb_dir:slice () in
  let refs, _ = references packed specs in
  let specs_a = Array.of_list specs in
  let next = ref 0 in
  let job ~conn =
    let ((s, cases) as spec) = specs_a.(!next mod Array.length specs_a) in
    incr next;
    L.make_job ~conn ~seed:s ~cases:(case_names cases)
      ~expected:(Hashtbl.find refs (spec_key spec)).json ()
  in
  let r =
    serve_run ~cli ~dir ~kb_dir:root ~traced ~job_timeout_s:120.0 (fun g probe ->
        (* set-up probes before and after the load *)
        probe (p.k_probes / 2);
        let t0 = now () in
        let a, reactions =
          L.closed_loop g ~depth:1
            ~continue:(fun () -> now () < t0 +. p.seconds)
            ~next:(fun conn -> job ~conn)
        in
        probe (p.k_probes - (p.k_probes / 2));
        ([ ("A", a, t0) ], reactions))
  in
  let _, a, a0 = List.hd r.phases in
  let latency (j : L.job) = j.L.done_at -. j.L.sent in
  let ok = done_jobs a in
  (* the traced engine pass covers each list once *)
  serve_outcome ~workload:"serve-kb" ~seed ~traced ~relaxed:p.k_relaxed ~refs ~packed
    ~specs:(List.map (fun l -> (List.hd kb_seeds, l)) lists)
    ~kb:(fun () -> (kb_open, kb)) r ~a0 ~throughput:(throughput [ (a, a0) ])
    ~lat:(List.map (fun j -> 1000.0 *. latency j) ok) ~tail_p:80.0
    ~slo_ok:(List.length (List.filter (fun j -> latency j <= kb_slo_s) ok))
    ~slo_of:(List.length a) ~broken:[]
