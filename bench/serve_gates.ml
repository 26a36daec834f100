(* Serve gates, and the helpers every gate that runs a real server
   shares: `serve-smoke` (durable admission, kill -9 mid-campaign,
   byte-identical resume, a failed admission write answered) and
   `procpool-smoke` (worker-written results byte-equal to a direct run). *)

open Harness

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* serve state nests (queue/, results/, jobs/job-N/), so the flat
   with_journal_dir cleanup is not enough *)
let with_serve_dir f =
  let dir = Filename.temp_file "rustbrain-serve" "" in
  Sys.remove dir;
  Rb_util.Fsfile.mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The bench binary re-execs itself as the server process ("serve-child"
   argv mode, dispatched in main.ml) so the gates can kill -9 a real
   server process mid-campaign — the crash the durable admission
   contract is written against, not a simulated one. The server in turn
   re-execs this binary as "worker-child" processes, one per job attempt.
   Chaos runs arm a poison plan: named cases make their worker exit
   ("exit"), hang forever ("hang"), or SIGSTOP/SIGKILL/OOM itself. Mode
   "plain" is the production configuration; "fast" scales the watchdog
   clocks, crash budget and memory cap down so the escalation ladder runs
   in test time; "no-exec" points the workers at a binary that does not
   exist. *)
let worker_argv = [| Sys.executable_name; "worker-child" |]
let chaos_worker_max_crashes = 2
let chaos_worker_stall_s = 2.0
let chaos_worker_grace_s = 0.4
let chaos_worker_mem_mb = 512

(* "case-a=stop,case-b=oom" -> a declarative poison plan; entries with
   unknown labels are dropped *)
let parse_poison_spec spec =
  String.split_on_char ',' spec
  |> List.filter_map (fun part ->
       match String.index_opt part '=' with
       | Some i ->
         let case = String.sub part 0 i in
         let label =
           String.sub part (i + 1) (String.length part - i - 1)
         in
         Option.map (fun m -> (case, m)) (Serve.Jobrun.poison_of_label label)
       | None -> None)

let serve_child ~socket ~state ~runners ~poison_spec ~mode =
  let base =
    { Serve.Server.default_config with
      Serve.Server.socket; state_dir = state; runners; tick_s = 0.002;
      poison = parse_poison_spec poison_spec; worker_argv }
  in
  let cfg =
    match mode with
    | "fast" ->
      (* the stall deadline must still clear a real case repair with
         margin, or the watchdog kills honest jobs *)
      { base with
        Serve.Server.stall_timeout_s = chaos_worker_stall_s;
        abandon_grace_s = chaos_worker_grace_s;
        max_crashes = chaos_worker_max_crashes;
        worker_mem_mb = chaos_worker_mem_mb }
    | "no-exec" ->
      { base with
        Serve.Server.worker_argv = [| Filename.concat state "no-such-worker" |] }
    | _ -> base
  in
  ignore (Serve.Server.run cfg : Serve.Server.summary)

let spawn_server ?(poison_spec = "") ?(mode = "plain") ~socket ~state ~runners
    () =
  Unix.create_process Sys.executable_name
    [| Sys.executable_name; "serve-child"; socket; state;
       string_of_int runners; poison_spec; mode |]
    Unix.stdin Unix.stdout Unix.stderr

(* Direct children of [pid] (Linux /proc; [] where unavailable) *)
let children_of pid =
  match
    In_channel.with_open_bin
      (Printf.sprintf "/proc/%d/task/%d/children" pid pid)
      In_channel.input_all
  with
  | s -> List.filter_map int_of_string_opt (String.split_on_char ' ' s)
  | exception Sys_error _ -> []

(* Gone (kill -0 says ESRCH) or exited and awaiting its new parent's reap
   (state Z) *)
let exited pid =
  match Unix.kill pid 0 with
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  | exception Unix.Unix_error _ -> false
  | () -> (
    match
      In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
        In_channel.input_all
    with
    | s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] = 'Z'
      | _ -> false)
    | exception Sys_error _ -> true)

(* The subset of [pids] still running [within] seconds from now *)
let outliving ~within pids =
  let deadline = Unix.gettimeofday () +. within in
  let rec go () =
    let live = List.filter (fun p -> not (exited p)) pids in
    if live = [] || Unix.gettimeofday () > deadline then live
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* Every kill -9 of a server also checks that its workers died with it
   (parent-death signal): each pid still running 1 s later is recorded
   here and fails the gate that killed the server. *)
let leaked_workers = ref []

let kill9 pid =
  let workers = children_of pid in
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let status =
    match Unix.waitpid [] pid with
    | _, st -> Some st
    | exception Unix.Unix_error _ -> None
  in
  leaked_workers := outliving ~within:1.0 workers @ !leaked_workers;
  status

let kill_server pid = ignore (kill9 pid : Unix.process_status option)

let leak_report () =
  match !leaked_workers with
  | [] -> None
  | pids ->
    Some
      (Printf.sprintf "%d worker process(es) outlived a kill -9'd server: %s"
         (List.length pids)
         (String.concat ", " (List.map string_of_int pids)))

let serve_smoke_cases = List.filteri (fun i _ -> i mod 5 = 0) Dataset.Corpus.all

let serve_smoke_opts =
  { Exec.Campaign_opts.default with Exec.Campaign_opts.seeds = [ 1; 2 ] }

let serve_smoke () =
  section
    "Serve smoke — durable admission, kill -9 mid-campaign, byte-identical resume";
  let failures = ref 0 in
  let failf fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "FAIL %s\n" s;
        incr failures)
      fmt
  in
  let names =
    List.map (fun (c : Dataset.Case.t) -> c.Dataset.Case.name) serve_smoke_cases
  in
  let total = List.length names * 2 in
  (* 1. reference: the same job on an uninterrupted server *)
  let reference =
    with_serve_dir (fun dir ->
        let socket = Filename.concat dir "sock" in
        let state = Filename.concat dir "state" in
        let pid = spawn_server ~socket ~state ~runners:1 () in
        Fun.protect ~finally:(fun () -> kill_server pid)
          (fun () ->
            match Serve.Client.connect socket with
            | Error e ->
              failf "reference connect: %s" e;
              None
            | Ok c ->
              (* a job that lists a case twice is refused, naming the case,
                 before anything is made durable *)
              (match names with
              | a :: b :: _ -> (
                (match
                   Serve.Client.request c
                     (Serve.Wire.Submit
                        { tenant = "smoke"; backend = "rustbrain";
                          cases = Some [ a; b; a ];
                          opts = Some serve_smoke_opts })
                 with
                | Ok (Serve.Wire.Rejected { reason }) when contains reason a -> ()
                | Ok r ->
                  failf "repeated-case submit: unexpected %s"
                    (Serve.Wire.response_to_string r)
                | Error e -> failf "repeated-case submit: %s" e);
                let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
                if Serve.Store.pending store <> [] then
                  failf "a rejected submit left a durable record")
              | _ -> failf "serve smoke needs two cases");
              let out =
                match
                  Serve.Client.run_job c ~tenant:"smoke" ~backend:"rustbrain"
                    ~cases:(Some names) ~opts:(Some serve_smoke_opts)
                with
                | Error e ->
                  failf "reference job: %s" e;
                  None
                | Ok ((cases, _passed, failed), frames) ->
                  (match failed with
                  | Some m -> failf "reference job failed: %s" m
                  | None -> ());
                  if cases <> total then
                    failf "reference: %d case(s), want %d" cases total;
                  if List.length frames <> total then
                    failf "reference: %d CASE frame(s), want %d"
                      (List.length frames) total;
                  let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
                  Rb_util.Fsfile.read (Serve.Store.results_path store 0)
              in
              ignore
                (Serve.Client.request c Serve.Wire.Shutdown
                  : (Serve.Wire.response, string) result);
              Serve.Client.close c;
              out))
  in
  (match reference with
  | None -> failf "no reference results"
  | Some ref_bytes ->
    (* 2. same job, server killed -9 mid-campaign, restarted on the same
       state dir: the accepted job must finish with byte-identical stitched
       results *)
    with_serve_dir (fun dir ->
        let socket = Filename.concat dir "sock" in
        let state = Filename.concat dir "state" in
        let pid = spawn_server ~socket ~state ~runners:1 () in
        let killed =
          Fun.protect ~finally:(fun () -> kill_server pid)
            (fun () ->
              match Serve.Client.connect socket with
              | Error e ->
                failf "kill-run connect: %s" e;
                false
              | Ok c ->
                Fun.protect ~finally:(fun () -> Serve.Client.close c)
                  (fun () ->
                    match
                      Serve.Client.request c
                        (Serve.Wire.Submit
                           { tenant = "smoke"; backend = "rustbrain";
                             cases = Some names;
                             opts = Some serve_smoke_opts })
                    with
                    | Ok (Serve.Wire.Accepted { id = 0; _ }) ->
                      (* ACCEPTED means durable: the record must already be
                         scannable on disk *)
                      let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
                      (match Serve.Store.pending store with
                      | [ s ] when s.Serve.Store.id = 0 -> ()
                      | _ -> failf "accepted job not durable at ACCEPTED time");
                      (* kill once at least two repairs are journaled but the
                         job is still in flight *)
                      let rec wait_mid tries =
                        if tries <= 0 then false
                        else if Serve.Store.progress store 0 >= 2 then true
                        else begin
                          Unix.sleepf 0.002;
                          wait_mid (tries - 1)
                        end
                      in
                      if not (wait_mid 10_000) then begin
                        failf "no journal progress before the kill window";
                        false
                      end
                      else begin
                        kill_server pid;
                        if Serve.Store.progress store 0 >= total then
                          print_endline
                            "note: job already complete at kill time";
                        true
                      end
                    | Ok r ->
                      failf "kill-run submit: unexpected %s"
                        (Serve.Wire.response_to_string r);
                      false
                    | Error e ->
                      failf "kill-run submit: %s" e;
                      false))
        in
        if killed then begin
          let pid2 = spawn_server ~socket ~state ~runners:1 () in
          Fun.protect ~finally:(fun () -> kill_server pid2)
            (fun () ->
              match Serve.Client.connect socket with
              | Error e -> failf "restart connect: %s" e
              | Ok c ->
                Fun.protect ~finally:(fun () -> Serve.Client.close c)
                  (fun () ->
                    let rec poll tries =
                      if tries <= 0 then failf "resumed job never finished"
                      else
                        match
                          Serve.Client.request c (Serve.Wire.Status (Some 0))
                        with
                        | Ok
                            (Serve.Wire.Job
                               { state =
                                   Serve.Wire.Finished { cases; failed; _ };
                                 _ }) ->
                          (match failed with
                          | Some m -> failf "resumed job failed: %s" m
                          | None -> ());
                          if cases <> total then
                            failf "resumed: %d case(s), want %d" cases total
                        | Ok _ ->
                          Unix.sleepf 0.01;
                          poll (tries - 1)
                        | Error e -> failf "restart status: %s" e
                    in
                    poll 6000;
                    let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
                    (match
                       Rb_util.Fsfile.read (Serve.Store.results_path store 0)
                     with
                    | Some bytes when String.equal bytes ref_bytes -> ()
                    | Some _ ->
                      failf
                        "resumed stitched results differ from the \
                         uninterrupted run"
                    | None -> failf "resumed results file missing");
                    (* RESULTS must re-stream the durable reports *)
                    (match Serve.Client.request c (Serve.Wire.Results 0) with
                    | Ok (Serve.Wire.Case _) ->
                      let rec drain n =
                        match Serve.Client.recv c with
                        | Ok (Serve.Wire.Case _) -> drain (n + 1)
                        | Ok (Serve.Wire.Done _) -> n
                        | Ok r ->
                          failf "RESULTS drain: unexpected %s"
                            (Serve.Wire.response_to_string r);
                          n
                        | Error e ->
                          failf "RESULTS drain: %s" e;
                          n
                      in
                      let n = drain 1 in
                      if n <> total then
                        failf "RESULTS streamed %d frame(s), want %d" n total
                    | Ok r ->
                      failf "RESULTS: unexpected %s"
                        (Serve.Wire.response_to_string r)
                    | Error e -> failf "RESULTS: %s" e);
                    ignore
                      (Serve.Client.request c Serve.Wire.Shutdown
                        : (Serve.Wire.response, string) result)))
        end));
  (* 3. a durable write that fails at admission is an answer, not a crash:
     with job 0's record path blocked by a directory, SUBMIT gets ERROR
     and HEALTH still answers; once the path is clear, SUBMIT is ACCEPTED
     as job 0, because the failed admission used nothing up *)
  with_serve_dir (fun dir ->
      let socket = Filename.concat dir "sock" in
      let state = Filename.concat dir "state" in
      let pid = spawn_server ~socket ~state ~runners:1 () in
      Fun.protect ~finally:(fun () -> kill_server pid)
        (fun () ->
          match Serve.Client.connect socket with
          | Error e -> failf "blocked-admission connect: %s" e
          | Ok c ->
            Fun.protect ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                let blocker = Filename.concat state "queue/job-000000.json" in
                let submit () =
                  Serve.Client.request c
                    (Serve.Wire.Submit
                       { tenant = "smoke"; backend = "llm-only";
                         cases = Some [ List.hd names ];
                         opts = Some serve_smoke_opts })
                in
                let expect what ok = function
                  | Ok r when ok r -> ()
                  | Ok r ->
                    failf "%s: unexpected %s" what
                      (Serve.Wire.response_to_string r)
                  | Error e -> failf "%s: %s" what e
                in
                Unix.mkdir blocker 0o755;
                expect "blocked submit"
                  (function Serve.Wire.Error_msg _ -> true | _ -> false)
                  (submit ());
                expect "health after a blocked submit"
                  (function Serve.Wire.Health _ -> true | _ -> false)
                  (Serve.Client.request c Serve.Wire.Health);
                Unix.rmdir blocker;
                expect "submit after unblocking"
                  (function
                    | Serve.Wire.Accepted { id = 0; _ } -> true | _ -> false)
                  (submit ());
                ignore
                  (Serve.Client.request c Serve.Wire.Shutdown
                    : (Serve.Wire.response, string) result))));
  Option.iter (failf "%s") (leak_report ());
  if !failures > 0 then exit 1;
  Printf.printf
    "serve smoke ok: a repeated-case job rejected before admission, %d \
     case-repairs accepted durably, killed -9 mid-campaign with its worker \
     dying alongside, resumed byte-identical\n"
    total

let results_bytes ~state id =
  let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
  Rb_util.Fsfile.read (Serve.Store.results_path store id)

(* -- procpool smoke (runtest gate) ------------------------------------- *)

(* The byte-exactness contract of the worker pool: each results file a
   worker process writes must equal the bytes of the same job run directly
   in this process — Serve.Jobrun.execute against a fresh journal dir,
   written by the same Store.write_results. Any divergence is a real bug
   in the dispatch/stream/persist path, not noise. *)
let procpool_smoke () =
  section "Procpool smoke — worker results byte-identical to a direct run";
  let failures = ref 0 in
  let failf fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "FAIL %s\n" s;
        incr failures)
      fmt
  in
  let names =
    List.map (fun (c : Dataset.Case.t) -> c.Dataset.Case.name) serve_smoke_cases
  in
  if List.length names < 4 then failf "corpus too small for the procpool gate";
  let half = List.length names / 2 in
  let jobs =
    [ List.filteri (fun i _ -> i < half) names;
      List.filteri (fun i _ -> i >= half) names ]
  in
  let served =
    with_serve_dir (fun dir ->
        let socket = Filename.concat dir "sock" in
        let state = Filename.concat dir "state" in
        let pid = spawn_server ~socket ~state ~runners:2 () in
        Fun.protect ~finally:(fun () -> kill_server pid)
          (fun () ->
            match
              Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 socket
            with
            | Error e ->
              failf "connect: %s" e;
              []
            | Ok c ->
              Fun.protect ~finally:(fun () -> Serve.Client.close c)
                (fun () ->
                  let results =
                    List.mapi
                      (fun i cases ->
                        match
                          Serve.Client.run_job c ~tenant:"procpool"
                            ~backend:"rustbrain" ~cases:(Some cases)
                            ~opts:(Some serve_smoke_opts)
                        with
                        | Error e ->
                          failf "job %d: %s" i e;
                          None
                        | Ok ((_, _, failed), frames) ->
                          (match failed with
                          | Some m -> failf "job %d failed: %s" i m
                          | None -> ());
                          let want = List.length cases * 2 in
                          if List.length frames <> want then
                            failf "job %d: %d CASE frame(s), want %d" i
                              (List.length frames) want;
                          results_bytes ~state i)
                      jobs
                  in
                  (match Serve.Client.request c Serve.Wire.Health with
                  | Ok (Serve.Wire.Health { worker_pids; _ }) ->
                    if worker_pids = [] then failf "HEALTH: no worker pids"
                  | Ok r ->
                    failf "HEALTH: unexpected %s"
                      (Serve.Wire.response_to_string r)
                  | Error e -> failf "HEALTH: %s" e);
                  ignore
                    (Serve.Client.request c Serve.Wire.Shutdown
                      : (Serve.Wire.response, string) result);
                  results)))
  in
  let direct i cases =
    with_serve_dir (fun dir ->
        match
          Serve.Jobrun.execute ~backend:"rustbrain" ~case_names:cases
            ~opts:serve_smoke_opts
            ~label:(Printf.sprintf "serve/job-%06d" i)
            ~journal_dir:(Filename.concat dir "journal") ~domains:None
            ~before:ignore
            ~cancel:(fun () -> false)
            ~observe:(fun ~seq:_ ~case:_ ~seed:_ ~report_json:_ -> ())
            ()
        with
        | Error e ->
          failf "direct job %d: %s" i e;
          None
        | Ok o ->
          let path = Filename.concat dir "results.jsonl" in
          Serve.Store.write_results path o.Serve.Jobrun.reports;
          Rb_util.Fsfile.read path)
  in
  if List.length served <> List.length jobs then failf "no served results"
  else
    List.iteri
      (fun i (cases, got) ->
        match (got, direct i cases) with
        | Some a, Some b when String.equal a b -> ()
        | Some _, Some _ ->
          failf "job %d: worker results differ from the direct run" i
        | None, _ | _, None -> failf "job %d: results missing" i)
      (List.combine jobs served);
  Option.iter (failf "%s") (leak_report ());
  if !failures > 0 then exit 1;
  Printf.printf
    "procpool smoke ok: %d job(s) (%d cases x %d seeds) byte-identical \
     between worker processes and a direct run\n"
    (List.length jobs) (List.length names) 2
