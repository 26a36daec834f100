(* The serve family: `serve` runs the event-driven repair server on a
   Unix socket, `serve-fsck` scans its state directory offline, and
   `serve-ctl` talks to a running server (ops verbs, plus `submit` and
   `results` for one job). *)

open Cmdliner

let socket_arg =
  Arg.(value & opt string "rustbrain.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path.")

let parse_weights spec =
  if String.trim spec = "" then Ok []
  else
    String.split_on_char ',' spec
    |> List.map (fun part ->
         match String.index_opt part '=' with
         | Some i ->
           let tenant = String.trim (String.sub part 0 i) in
           let w =
             String.trim (String.sub part (i + 1) (String.length part - i - 1))
           in
           (match (tenant, int_of_string_opt w) with
           | "", _ | _, None ->
             Error (Printf.sprintf "--weights: bad entry %S" part)
           | t, Some w -> Ok (t, w))
         | None -> Error (Printf.sprintf "--weights: bad entry %S" part))
    |> List.fold_left
         (fun acc r ->
           match (acc, r) with
           | Error _, _ -> acc
           | _, Error e -> Error e
           | Ok ws, Ok w -> Ok (w :: ws))
         (Ok [])
    |> Result.map List.rev

let serve_cmd =
  let state_dir =
    Arg.(value & opt string "serve-state" & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"Durable server state: the fsynced accepted-jobs queue, one \
                 write-ahead journal per job, and stitched result files. A \
                 server restarted on the same directory re-enqueues every \
                 accepted-but-unfinished job and replays journaled repairs.")
  in
  let runners =
    Arg.(value & opt int 2 & info [ "runners" ] ~docv:"N"
           ~doc:"Concurrent job slots; each job is internally domain-parallel \
                 per its own opts (or $(b,--domains) as the default).")
  in
  let max_queue =
    Arg.(value & opt int 128 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Bounded inbound queue; past it submissions get an explicit \
                 BUSY with a retry-after hint instead of buffering.")
  in
  let quota =
    Arg.(value & opt int 64 & info [ "quota" ] ~docv:"N"
           ~doc:"Max queued jobs per tenant.")
  in
  let weights =
    Arg.(value & opt string "" & info [ "weights" ] ~docv:"TENANT=W,..."
           ~doc:"Weighted-fair-queue weights; unlisted tenants weigh 1.")
  in
  let max_crashes =
    Arg.(value & opt int 3 & info [ "max-crashes" ] ~docv:"N"
           ~doc:"Crash budget per job: a job whose attempts crash a runner \
                 (or the whole server — counted durably across restarts) \
                 this many times is quarantined as poison instead of being \
                 retried forever.")
  in
  let stall_timeout =
    Arg.(value & opt float 300.0 & info [ "stall-timeout" ] ~docv:"SECONDS"
           ~doc:"Watchdog: abort a running job that completes no case for \
                 this long (cooperative at the next case boundary; a worker \
                 hung inside a case is SIGTERMed, then SIGKILLed, and the \
                 job requeued at its journal frontier).")
  in
  let job_timeout =
    Arg.(value & opt float 3600.0 & info [ "job-timeout" ] ~docv:"SECONDS"
           ~doc:"Watchdog: wall-clock ceiling for a single job attempt.")
  in
  let evict_idle =
    Arg.(value & opt float 30.0 & info [ "evict-idle" ] ~docv:"SECONDS"
           ~doc:"Evict a connection with pending output whose socket has \
                 accepted nothing for this long (slowloris reader). The \
                 durable results file makes eviction safe: re-fetch with \
                 RESULTS.")
  in
  let worker_mem_mb =
    Arg.(value & opt int 0 & info [ "worker-mem-mb" ] ~docv:"MIB"
           ~doc:"Address-space cap (RLIMIT_AS) per worker process, in MiB; \
                 a worker that exceeds it dies to the limit and the attempt \
                 is crash-accounted. 0 (default) sets no cap.")
  in
  let kb_write =
    Arg.(value & flag & info [ "kb-write" ]
           ~doc:"Open tenant knowledge stores writable, so jobs append what \
                 they learn. Off by default: concurrent jobs of one tenant \
                 would contend for the store's single-writer lock, so enable \
                 this only where tenant jobs are serialized.")
  in
  let run socket state_dir runners max_queue quota weights max_crashes
      stall_timeout job_timeout evict_idle worker_mem_mb kb_write opts =
    match
      match opts with
      | Error _ as e -> e
      | Ok (o : Exec.Campaign_opts.t) ->
        if o.Exec.Campaign_opts.journal <> None || o.resume || o.fresh then
          Error "the server journals every job itself under --state-dir; \
                 --journal/--resume/--fresh do not apply"
        else if o.out <> None then
          Error "the server stores results under --state-dir; --out does not \
                 apply"
        else if o.kb_readonly then
          Error "the server opens tenant knowledge stores read-only already; \
                 pass --kb-write to make them writable"
        else if kb_write && o.kb_dir = None then
          Error "--kb-write requires --kb-dir DIR"
        else Result.map (fun ws -> (o, ws)) (parse_weights weights)
    with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok ((opts : Exec.Campaign_opts.t), weights) ->
      if runners < 1 || max_queue < 1 || quota < 1 then begin
        prerr_endline "--runners/--max-queue/--quota must be at least 1";
        1
      end
      else if max_crashes < 1 then begin
        prerr_endline "--max-crashes must be at least 1";
        1
      end
      else if stall_timeout <= 0.0 || job_timeout <= 0.0 || evict_idle <= 0.0
      then begin
        prerr_endline
          "--stall-timeout/--job-timeout/--evict-idle must be positive";
        1
      end
      else if worker_mem_mb < 0 then begin
        prerr_endline "--worker-mem-mb must be non-negative";
        1
      end
      else begin
        let trace_sink =
          Option.map (fun p -> Obs.Trace.file ~wall:true p)
            opts.Exec.Campaign_opts.trace
        in
        let registry =
          if opts.Exec.Campaign_opts.metrics then Some (Obs.Metrics.create ())
          else None
        in
        let default_opts =
          (* kb fields are server-level policy (per-tenant slicing), not
             per-job defaults; like journal/out they must not reach jobs
             through the opts record *)
          { opts with
            Exec.Campaign_opts.journal = None; resume = false; fresh = false;
            trace = None; metrics = false; out = None;
            kb_dir = None; kb_readonly = false }
        in
        let cfg =
          { Serve.Server.default_config with
            Serve.Server.socket; state_dir; runners;
            domains_per_job = opts.Exec.Campaign_opts.domains;
            max_queue; quota; weights; default_opts;
            max_crashes; stall_timeout_s = stall_timeout;
            job_timeout_s = job_timeout; evict_idle_s = evict_idle;
            worker_mem_mb;
            rng_seed = Exec.Campaign_opts.seed opts;
            kb_dir = opts.Exec.Campaign_opts.kb_dir;
            kb_readonly = not kb_write;
            trace = trace_sink; metrics = registry }
        in
        let s =
          Serve.Server.run
            ~on_ready:(fun p -> Printf.printf "serve: listening on %s\n%!" p)
            cfg
        in
        Option.iter Obs.Trace.close trace_sink;
        Common.print_metrics registry;
        Printf.printf
          "serve: accepted %d, completed %d, failed %d, cancelled %d, busy %d, \
           rejected %d, resumed %d, left queued %d, quarantined %d, requeued \
           %d, evicted %d\n"
          s.Serve.Server.accepted s.Serve.Server.completed s.Serve.Server.failed
          s.Serve.Server.cancelled s.Serve.Server.busy s.Serve.Server.rejected
          s.Serve.Server.resumed s.Serve.Server.left_queued
          s.Serve.Server.quarantined s.Serve.Server.requeued
          s.Serve.Server.evicted;
        if s.Serve.Server.failed > 0 then 1 else 0
      end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the event-driven repair server: durable admission, per-tenant \
             weighted fair queuing, per-case report streaming, kill-safe \
             resume, process-isolated worker supervision (cooperative cancel, \
             then SIGTERM, then SIGKILL) and poison-job quarantine. Stops on \
             a SHUTDOWN frame or after a DRAIN wind-down.")
    Term.(const run $ socket_arg $ state_dir $ runners $ max_queue $ quota
          $ weights $ max_crashes $ stall_timeout $ job_timeout $ evict_idle
          $ worker_mem_mb $ kb_write $ Common.opts_term)

(* -- serve-fsck ----------------------------------------------------------- *)

let serve_fsck_cmd =
  let state_dir =
    Arg.(value & opt string "serve-state" & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"The server state directory to scan.")
  in
  let dry_run =
    Arg.(value & flag & info [ "dry-run" ]
           ~doc:"Classify and report only; heal nothing, move nothing.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let run state_dir dry_run json =
    if not (Sys.file_exists state_dir) then begin
      Printf.eprintf "serve-fsck: no state directory at %s\n" state_dir;
      1
    end
    else begin
      let report = Serve.Store.fsck ~heal:(not dry_run) ~dir:state_dir () in
      if json then
        print_endline
          (Rb_util.Json.to_string (Serve.Store.fsck_report_to_json report))
      else begin
        Printf.printf
          "serve-fsck%s: %d records scanned — %d intact, %d healed, %d \
           torn, %d corrupt\n"
          (if dry_run then " (dry run)" else "")
          report.Serve.Store.scanned report.Serve.Store.intact
          (Serve.Store.fsck_count `Healed report)
          (Serve.Store.fsck_count `Torn report)
          (Serve.Store.fsck_count `Corrupt report);
        List.iter
          (fun (i : Serve.Store.fsck_issue) ->
            Printf.printf "  [%s] %s: %s — %s\n"
              (Serve.Store.severity_label i.Serve.Store.severity)
              i.Serve.Store.rel_path i.Serve.Store.detail i.Serve.Store.action)
          report.Serve.Store.issues
      end;
      (* torn and corrupt records mean data needed attention; healed ones
         are routine *)
      if
        Serve.Store.fsck_count `Corrupt report > 0
        || Serve.Store.fsck_count `Torn report > 0
      then 1
      else 0
    end
  in
  Cmd.v
    (Cmd.info "serve-fsck"
       ~doc:"Scan (and heal) a repair-server state directory: classify every \
             durable record as intact / healed / torn / corrupt, \
             drop torn tails, remove stale temp files, and set unreadable \
             records aside under quarantined/corrupt/ with their bytes \
             preserved. The server runs the same scrub at startup; this \
             command is the offline/ops entry point. Exits 1 if anything \
             was torn or corrupt.")
    Term.(const run $ state_dir $ dry_run $ json)

(* -- serve-ctl ------------------------------------------------------------ *)

(* How long submit and results wait for each frame: the server's default
   per-attempt job timeout, so a job that waits in the queue is followed
   rather than given up on. *)
let frame_timeout_s = Serve.Server.default_config.Serve.Server.job_timeout_s

(* One line per CASE frame. Wire.parse_response re-renders the report
   object through Rb_util.Json, which prints floats differently; Report's
   codec round trip is render-exact, so the line is campaign --json's. *)
let print_case report_json =
  match Rustbrain.Report.of_json report_json with
  | Ok r -> print_endline (Rustbrain.Report.to_json r)
  | Error e -> Printf.eprintf "serve-ctl: undecodable report: %s\n" e

(* DONE ends a job's stream; the exit code is the one campaign gives *)
let done_code ~cases ~passed ~failed =
  match failed with
  | Some why ->
    Printf.eprintf "serve-ctl: job failed: %s\n" why;
    2
  | None -> if passed = cases then 0 else 1

let submit c ~tenant ~backend ~cases ~opts =
  let on_case = function
    | Serve.Wire.Case { report_json; _ } -> print_case report_json
    | _ -> ()
  in
  match
    Serve.Client.run_job ~timeout_s:frame_timeout_s ~on_case c ~tenant ~backend
      ~cases ~opts
  with
  | Error e ->
    Printf.eprintf "serve-ctl: %s\n" e;
    1
  | Ok ((cases, passed, failed), _) -> done_code ~cases ~passed ~failed

let results c id =
  let rec follow () =
    match Serve.Client.recv ~timeout_s:frame_timeout_s c with
    | Error e ->
      Printf.eprintf "serve-ctl: %s\n" e;
      1
    | Ok (Serve.Wire.Case { id = cid; report_json; _ }) when cid = id ->
      print_case report_json;
      follow ()
    | Ok (Serve.Wire.Done { id = did; cases; passed; failed }) when did = id ->
      done_code ~cases ~passed ~failed
    | Ok (Serve.Wire.Error_msg m) ->
      Printf.eprintf "serve-ctl: server error: %s\n" m;
      1
    | Ok r ->
      Printf.eprintf "serve-ctl: no results for job %d: %s\n" id
        (Serve.Wire.response_to_string r);
      1
  in
  match Serve.Client.send c (Serve.Wire.Results id) with
  | Error e ->
    Printf.eprintf "serve-ctl: %s\n" e;
    1
  | Ok () -> follow ()

let ops c action =
  let req : Serve.Wire.request =
    match action with
    | `Health -> Serve.Wire.Health
    | `Drain -> Serve.Wire.Drain
    | `Status -> Serve.Wire.Status None
    | `Shutdown -> Serve.Wire.Shutdown
  in
  match Serve.Client.request c req with
  | Error e ->
    Printf.eprintf "serve-ctl: %s\n" e;
    1
  | Ok (Serve.Wire.Health { queued; running; quarantined; draining; slots;
                            worker_pids; respawns; kills_term;
                            kills_kill })
    ->
    Printf.printf "health: queued %d, running %d, quarantined %d%s\n"
      queued running quarantined
      (if draining then ", draining" else "");
    Printf.printf "workers: %s\n"
      (if worker_pids = [] then "none"
       else
         "pids " ^ String.concat ", " (List.map string_of_int worker_pids));
    if respawns + kills_term + kills_kill > 0 then
      Printf.printf "supervision: %d respawned, %d SIGTERM, %d SIGKILL\n"
        respawns kills_term kills_kill;
    List.iter
      (fun (i, s) -> Printf.printf "  slot %d: %s\n" i s)
      slots;
    0
  | Ok (Serve.Wire.Draining { active; queued }) ->
    Printf.printf "draining: %d active, %d queued will finish\n" active
      queued;
    0
  | Ok (Serve.Wire.Shutting_down { active; queued }) ->
    Printf.printf "shutting down: %d active finishing, %d left queued\n"
      active queued;
    0
  | Ok (Serve.Wire.Server { queued; running; completed; cancelled;
                            quarantined; tenants }) ->
    Printf.printf
      "server: queued %d, running %d, completed %d, cancelled %d, \
       quarantined %d\n"
      queued running completed cancelled quarantined;
    List.iter
      (fun (t, n) -> Printf.printf "  tenant %s: %d queued\n" t n)
      tenants;
    0
  | Ok (Serve.Wire.Error_msg m) ->
    Printf.eprintf "serve-ctl: server error: %s\n" m;
    1
  | Ok _ ->
    Printf.eprintf "serve-ctl: unexpected reply\n";
    1

(* submit carries only the wire subset of the campaign options, exactly
   what a SUBMIT frame holds; every other action takes no job arguments *)
let ctl_request
    (action : [ `Health | `Drain | `Status | `Shutdown | `Submit | `Results ])
    ~id ~tenant ~backend ~cases opts =
  match opts with
  | Error _ as e -> e
  | Ok (o : Exec.Campaign_opts.t) -> (
    let job_args =
      tenant <> "default" || backend <> "rustbrain" || cases <> ""
      || o <> Exec.Campaign_opts.default
    in
    match (action, id) with
    | `Submit, None ->
      let wire =
        { o with
          Exec.Campaign_opts.journal = None; resume = false; fresh = false;
          trace = None; metrics = false; out = None; kb_dir = None;
          kb_readonly = false }
      in
      if wire <> o then
        Error "a job carries only --seeds, --domains, --fault-rate, --retries \
               and --deadline-ms; journals, traces, metrics, outputs and \
               knowledge stores belong to serve"
      else
        let cases =
          match Common.split_names cases with [] -> None | names -> Some names
        in
        Ok
          (`Submit
            ( tenant, backend, cases,
              if wire = Exec.Campaign_opts.default then None else Some wire ))
    | _ when job_args ->
      Error "--tenant, --backend, --cases and the campaign options apply to \
             serve-ctl submit only"
    | `Results, Some id -> Ok (`Results id)
    | `Results, None -> Error "serve-ctl results takes a job ID"
    | _, Some _ -> Error "only serve-ctl results takes a job ID"
    | ((`Health | `Drain | `Status | `Shutdown) as a), None -> Ok a)

let serve_ctl_cmd =
  let action =
    let names =
      [ ("health", `Health); ("drain", `Drain); ("status", `Status);
        ("shutdown", `Shutdown); ("submit", `Submit); ("results", `Results) ]
    in
    Arg.(required
         & pos 0 (some (enum names)) None
         & info [] ~docv:"ACTION"
             ~doc:"health | drain | status | shutdown | submit | results")
  in
  let id =
    Arg.(value & pos 1 (some int) None & info [] ~docv:"ID"
           ~doc:"The job whose reports $(b,results) re-streams.")
  in
  let tenant =
    Arg.(value & opt string "default" & info [ "tenant" ] ~docv:"NAME"
           ~doc:"The submitted job's tenant.")
  in
  let backend =
    Arg.(value & opt string "rustbrain" & info [ "backend" ] ~docv:"NAME"
           ~doc:(Printf.sprintf "The submitted job's backend: %s."
                   (String.concat ", " Exec.Backends.all_names)))
  in
  let cases =
    Arg.(value & opt string "" & info [ "cases" ] ~docv:"NAME,NAME,..."
           ~doc:"The submitted job's corpus cases (default: whole corpus).")
  in
  let run socket action id tenant backend cases opts =
    match ctl_request action ~id ~tenant ~backend ~cases opts with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok request -> (
      match Serve.Client.connect socket with
      | Error e ->
        Printf.eprintf "serve-ctl: %s\n" e;
        1
      | Ok c ->
        let code =
          match request with
          | `Submit (tenant, backend, cases, opts) ->
            submit c ~tenant ~backend ~cases ~opts
          | `Results id -> results c id
          | (`Health | `Drain | `Status | `Shutdown) as a -> ops c a
        in
        Serve.Client.close c;
        code)
  in
  Cmd.v
    (Cmd.info "serve-ctl"
       ~doc:"Operate on a running repair server: $(b,health) (queue depth, \
             slot states, quarantine count), $(b,drain) (stop admitting, \
             finish everything, flush, exit), $(b,status), $(b,shutdown); \
             $(b,submit) one job and print one report line per case as it \
             lands (the bytes $(b,campaign --json) prints for the same cases \
             and seed); $(b,results) $(i,ID) re-streams a finished job's \
             reports the same way. Exit codes follow $(b,campaign).")
    Term.(const run $ socket_arg $ action $ id $ tenant $ backend $ cases
          $ Common.opts_term)
