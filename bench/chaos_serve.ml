(* The serve survival gate (dune runtest alias chaos-serve); bench/dune
   lists what it covers. It runs its servers through Serve_gates' helpers. *)

open Harness
open Serve_gates

(* WNOHANG poll with a deadline, so a wedged server fails the gate instead
   of hanging runtest *)
let wait_status ~timeout_s pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then None
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    | _, st -> Some st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> None
  in
  go ()

(* Poll [f] every 20 ms until it returns [Some], for at most [timeout_s] *)
let poll_until ~timeout_s f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match f () with
    | Some _ as r -> r
    | None when Unix.gettimeofday () > deadline -> None
    | None ->
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let chaos_serve () =
  section
    "Chaos serve — seeded client faults, kill -9 matrix, poison quarantine, \
     clean drain";
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
  if List.length names < 5 then failf "corpus too small for the chaos gate";
  let nth = List.nth names in
  let poison_case = nth 0 in
  let normal_jobs = [ [ nth 1; nth 2 ]; [ nth 3; nth 4 ] ] in
  let opts =
    { Exec.Campaign_opts.default with Exec.Campaign_opts.seeds = [ 1 ] }
  in
  let max_crashes = Serve.Server.default_config.Serve.Server.max_crashes in
  let check_results what ~state id ref_bytes =
    match (ref_bytes, results_bytes ~state id) with
    | Some a, Some b when String.equal a b -> ()
    | Some _, Some _ ->
      failf "%s: job %d results differ from the uninterrupted run" what id
    | Some _, None -> failf "%s: job %d results missing" what id
    | None, _ -> ()
  in
  let job_state c id =
    match Serve.Client.request c (Serve.Wire.Status (Some id)) with
    | Ok (Serve.Wire.Job { state; _ }) -> Some state
    | Ok _ | Error _ -> None
  in
  (* 1. reference bytes for each normal job on an untouched server: every
     later run's non-poisoned results must be byte-identical to these *)
  let reference =
    with_serve_dir (fun dir ->
        let socket = Filename.concat dir "sock" in
        let state = Filename.concat dir "state" in
        let pid = spawn_server ~socket ~state ~runners:1 () in
        Fun.protect ~finally:(fun () -> kill_server pid)
          (fun () ->
            match Serve.Client.connect socket with
            | Error e ->
              failf "chaos reference connect: %s" e;
              []
            | Ok c ->
              Fun.protect ~finally:(fun () -> Serve.Client.close c)
                (fun () ->
                  let bytes =
                    List.mapi
                      (fun i cases ->
                        match
                          Serve.Client.run_job c ~tenant:"chaos"
                            ~backend:"rustbrain" ~cases:(Some cases)
                            ~opts:(Some opts)
                        with
                        | Error e ->
                          failf "chaos reference job %d: %s" i e;
                          None
                        | Ok ((_, _, failed), _) ->
                          (match failed with
                          | Some m ->
                            failf "chaos reference job %d failed: %s" i m
                          | None -> ());
                          results_bytes ~state i)
                      normal_jobs
                  in
                  ignore
                    (Serve.Client.request c Serve.Wire.Shutdown
                      : (Serve.Wire.response, string) result);
                  bytes)))
  in
  let ref_job i = List.nth_opt reference i |> Option.join in
  (* 2. the kill matrix: two normal jobs and one poison job whose case
     _exit(66)s its worker, plus one external kill -9 of the whole server
     while a normal job is mid-journal. With one runner only that job's
     attempt is open at the kill, so only the poison job can spend the
     crash budget: the normal jobs must resume to byte-identical results,
     and the poison job must be quarantined after exactly [max_crashes]
     worker deaths while the server stays up. *)
  with_serve_dir (fun dir ->
      let socket = Filename.concat dir "sock" in
      let state = Filename.concat dir "state" in
      let spawn () =
        spawn_server ~poison_spec:(poison_case ^ "=exit") ~socket ~state
          ~runners:1 ()
      in
      let pid0 = spawn () in
      let submitted =
        match Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 socket with
        | Error e ->
          failf "chaos submit connect: %s" e;
          kill_server pid0;
          false
        | Ok c ->
          Fun.protect ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              let submit i cases =
                match
                  Serve.Client.request c
                    (Serve.Wire.Submit
                       { tenant = "chaos"; backend = "rustbrain";
                         cases = Some cases; opts = Some opts })
                with
                | Ok (Serve.Wire.Accepted { id; _ }) when id = i -> true
                | Ok r ->
                  failf "chaos submit %d: unexpected %s" i
                    (Serve.Wire.response_to_string r);
                  false
                | Error e ->
                  failf "chaos submit %d: %s" i e;
                  false
              in
              List.for_all Fun.id (List.mapi submit normal_jobs)
              && submit 2 [ poison_case ])
      in
      if submitted then begin
        (* external SIGKILL point: once at least one case of job 0 is
           journaled, kill -9 the whole server *)
        let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
        if
          poll_until ~timeout_s:40.0 (fun () ->
              if Serve.Store.progress store 0 >= 1 then Some () else None)
          = None
        then failf "chaos: no journal progress before the kill window";
        (match kill9 pid0 with
        | Some (Unix.WSIGNALED _) -> ()
        | Some _ | None -> failf "chaos: kill -9 did not take");
        let pid = spawn () in
        let reaped = ref false in
        Fun.protect
          ~finally:(fun () -> if not !reaped then kill_server pid)
          (fun () ->
            let terminal () =
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ ->
                let st = Serve.Store.open_dir ~scrub:false ~dir:state () in
                let terminal id =
                  match Serve.Store.status st id with
                  | Some (Serve.Store.Done _ | Serve.Store.Quarantined _) -> true
                  | _ -> false
                in
                if terminal 0 && terminal 1 && terminal 2 then Some true
                else None
              | _ ->
                reaped := true;
                Some false
              | exception Unix.Unix_error _ -> None
            in
            match poll_until ~timeout_s:120.0 terminal with
            | None -> failf "chaos: jobs never reached a terminal state"
            | Some false ->
              failf "chaos: a worker's poison exit took the server down"
            | Some true ->
              (* seeded client-fault plan against the survivor: after every
                 fault a fresh connection must still get a clean STATUS *)
              let seed = 0xC040 in
              let steps = 12 in
              Printf.printf "chaos plan (seed %#x): %s\n" seed
                (String.concat " "
                   (List.map Serve.Chaos.fault_label
                      (Serve.Chaos.plan ~seed ~steps)));
              let outcome = Serve.Chaos.run ~socket ~seed ~steps () in
              List.iter
                (fun (r : Serve.Chaos.step_result) ->
                  if not r.Serve.Chaos.probe_ok then
                    failf "chaos step %d (%s: %s): server stopped answering"
                      r.Serve.Chaos.step
                      (Serve.Chaos.fault_label r.Serve.Chaos.fault)
                      r.Serve.Chaos.detail)
                outcome.Serve.Chaos.steps;
              (* durable claims *)
              let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
              (match Serve.Store.quarantined store with
              | [ (2, q) ] ->
                if q.Serve.Store.crashes <> max_crashes then
                  failf
                    "chaos: quarantined after %d crash(es), want exactly %d"
                    q.Serve.Store.crashes max_crashes;
                if not (contains q.Serve.Store.reason "exit 66") then
                  failf "chaos: quarantine reason %S lacks the worker's exit 66"
                    q.Serve.Store.reason
              | l ->
                failf "chaos: %d quarantine record(s), want exactly 1 (job 2)"
                  (List.length l));
              List.iteri
                (fun i ref_bytes -> check_results "chaos" ~state i ref_bytes)
                reference;
              (* wire-level claims on a clean connection, then a drain the
                 server must finish by exiting 0 on its own *)
              (match Serve.Client.connect socket with
              | Error e -> failf "chaos verify connect: %s" e
              | Ok c ->
                Fun.protect ~finally:(fun () -> Serve.Client.close c)
                  (fun () ->
                    (match job_state c 2 with
                    | Some (Serve.Wire.Quarantined { crashes; _ }) ->
                      if crashes <> max_crashes then
                        failf "chaos STATUS: %d crash(es) reported, want %d"
                          crashes max_crashes
                    | _ -> failf "chaos STATUS 2: not quarantined");
                    (match Serve.Client.request c (Serve.Wire.Results 2) with
                    | Ok
                        (Serve.Wire.Quarantined_result { id = 2; crashes; _ })
                      ->
                      if crashes <> max_crashes then
                        failf
                          "chaos RESULTS terminator: %d crash(es), want %d"
                          crashes max_crashes
                    | Ok r ->
                      failf "chaos RESULTS 2: unexpected %s"
                        (Serve.Wire.response_to_string r)
                    | Error e -> failf "chaos RESULTS 2: %s" e);
                    (match Serve.Client.request c Serve.Wire.Health with
                    | Ok
                        (Serve.Wire.Health
                           { queued; running; quarantined; _ }) ->
                      if queued <> 0 || running <> 0 then
                        failf "chaos HEALTH: %d queued / %d running, want idle"
                          queued running;
                      if quarantined <> 1 then
                        failf "chaos HEALTH: %d quarantined, want 1"
                          quarantined
                    | Ok r ->
                      failf "chaos HEALTH: unexpected %s"
                        (Serve.Wire.response_to_string r)
                    | Error e -> failf "chaos HEALTH: %s" e);
                    (match Serve.Client.request c Serve.Wire.Drain with
                    | Ok (Serve.Wire.Draining { active = 0; queued = 0 }) ->
                      ()
                    | Ok (Serve.Wire.Draining { active; queued }) ->
                      failf
                        "chaos DRAIN: %d active / %d queued at drain time, \
                         want none"
                        active queued
                    | Ok r ->
                      failf "chaos DRAIN: unexpected %s"
                        (Serve.Wire.response_to_string r)
                    | Error e -> failf "chaos DRAIN: %s" e)));
              (match wait_status ~timeout_s:30.0 pid with
              | Some (Unix.WEXITED 0) -> reaped := true
              | Some _ ->
                reaped := true;
                failf "chaos: drained server exited abnormally"
              | None -> failf "chaos: drained server never exited");
              (* after kills, crashes and quarantine the state dir must
                 scan clean: the startup scrubs healed everything healable
                 and nothing unreadable remains in the live tree *)
              let report = Serve.Store.fsck ~heal:false ~dir:state () in
              if Serve.Store.fsck_count `Corrupt report > 0 then
                failf "chaos fsck: %d corrupt record(s)"
                  (Serve.Store.fsck_count `Corrupt report);
              if Serve.Store.fsck_count `Torn report > 0 then
                failf "chaos fsck: %d torn record(s)"
                  (Serve.Store.fsck_count `Torn report))
      end);
  (* 3. start-up quarantine: a case that hangs its worker forever, under
     production watchdog clocks, and a normal job queued behind it. The
     whole server is killed -9 while the hung attempt is open, until the
     attempts WAL shows the crash budget spent; each time the hung worker
     must die with the server within 1 s. The next start must quarantine
     the job before dispatching anything, and the normal job must then
     finish byte-identical. *)
  with_serve_dir (fun dir ->
      let socket = Filename.concat dir "sock" in
      let state = Filename.concat dir "state" in
      let spawn () =
        spawn_server ~poison_spec:(poison_case ^ "=hang") ~socket ~state
          ~runners:1 ()
      in
      let hung_worker () =
        (* the pid HEALTH reports running job 0, once its worker has had
           time to reach the hang: the poisoned case is the job's first *)
        match Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 socket with
        | Error _ -> None
        | Ok c ->
          Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
              poll_until ~timeout_s:30.0 (fun () ->
                  match Serve.Client.request c Serve.Wire.Health with
                  | Ok
                      (Serve.Wire.Health
                         { slots = [ (_, s) ]; worker_pids = [ p ]; _ })
                    when contains s "running job 0 " ->
                    Unix.sleepf 0.3;
                    Some p
                  | _ -> None))
      in
      let pid = ref (spawn ()) in
      (match Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 socket with
      | Error e -> failf "hang connect: %s" e
      | Ok c ->
        (* a submitting connection is subscribed to its jobs' streams;
           closing it keeps CASE/DONE frames out of the polls below *)
        Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
            List.iteri
              (fun i cases ->
                match
                  Serve.Client.request c
                    (Serve.Wire.Submit
                       { tenant = "chaos"; backend = "rustbrain";
                         cases = Some cases; opts = Some opts })
                with
                | Ok (Serve.Wire.Accepted { id; _ }) when id = i -> ()
                | Ok r ->
                  failf "hang submit %d: unexpected %s" i
                    (Serve.Wire.response_to_string r)
                | Error e -> failf "hang submit %d: %s" i e)
              [ [ poison_case ]; [ nth 1; nth 2 ] ]));
      let rec kill_loop k =
        if k <= max_crashes && !failures = 0 then begin
          match hung_worker () with
          | None -> failf "hang: job 0 never ran (kill %d)" k
          | Some worker ->
            (match kill9 !pid with
            | Some (Unix.WSIGNALED _) -> ()
            | _ -> failf "hang: kill -9 %d did not take" k);
            if outliving ~within:1.0 [ worker ] <> [] then
              failf "hang: worker %d outlived the kill -9'd server" worker;
            let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
            if Serve.Store.crash_count store 0 <> k then
              failf "hang: attempts WAL counts %d crash(es) after kill %d"
                (Serve.Store.crash_count store 0) k;
            pid := spawn ();
            kill_loop (k + 1)
        end
      in
      kill_loop 1;
      let reaped = ref false in
      Fun.protect ~finally:(fun () -> if not !reaped then kill_server !pid)
        (fun () ->
          match Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 socket with
          | Error e -> failf "hang poll connect: %s" e
          | Ok c ->
            Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
                (match job_state c 0 with
                | Some (Serve.Wire.Quarantined { crashes; reason; _ }) ->
                  if crashes <> max_crashes then
                    failf "hang: quarantined after %d crash(es), want %d"
                      crashes max_crashes;
                  if not (contains reason "crashed the server") then
                    failf "hang: quarantined outside start-up: %s" reason
                | _ -> failf "hang: job 0 not quarantined at start-up");
                (match
                   poll_until ~timeout_s:60.0 (fun () ->
                       match job_state c 1 with
                       | Some (Serve.Wire.Finished { failed; _ }) -> Some failed
                       | _ -> None)
                 with
                | None -> failf "hang: normal job never finished"
                | Some (Some m) -> failf "hang: normal job failed: %s" m
                | Some None -> check_results "hang" ~state 1 (ref_job 0));
                ignore
                  (Serve.Client.request c Serve.Wire.Shutdown
                    : (Serve.Wire.response, string) result));
            (match wait_status ~timeout_s:30.0 !pid with
            | Some (Unix.WEXITED 0) -> reaped := true
            | Some _ ->
              reaped := true;
              failf "hang: server exited abnormally after SHUTDOWN"
            | None -> failf "hang: server never exited after SHUTDOWN")));
  (* 4. worker-fault matrix: SIGSTOP, SIGKILL and OOM inside worker
     processes — the crash vectors only true preemption reclaims. A
     SIGSTOP'd worker must be forcibly killed within stall-timeout + grace
     and its slot respawned; every fault is crash-accounted into
     quarantine after exactly the (scaled-down) budget; a clean job on the
     same server matches the reference byte for byte; and after DRAIN the
     server exits 0 with no worker process left behind. *)
  let clean_cases = [ nth 1; nth 2 ] in
  with_serve_dir (fun dir ->
      let socket = Filename.concat dir "sock" in
      let state = Filename.concat dir "state" in
      let poison_spec =
        Printf.sprintf "%s=stop,%s=kill,%s=oom" (nth 0) (nth 3) (nth 4)
      in
      let pid =
        spawn_server ~poison_spec ~mode:"fast" ~socket ~state ~runners:1 ()
      in
      let reaped = ref false in
      Fun.protect ~finally:(fun () -> if not !reaped then kill_server pid)
        (fun () ->
          (* 4a. clean job first: byte-identical to the reference, and
             HEALTH must name its worker *)
          let health_pids = ref [] in
          (match
             Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 socket
           with
          | Error e -> failf "worker-matrix connect: %s" e
          | Ok c ->
            Fun.protect ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                (match
                   Serve.Client.run_job c ~tenant:"chaos-worker"
                     ~backend:"rustbrain" ~cases:(Some clean_cases)
                     ~opts:(Some opts)
                 with
                | Error e -> failf "worker-matrix clean job: %s" e
                | Ok ((_, _, failed), frames) ->
                  (match failed with
                  | Some m -> failf "worker-matrix clean job failed: %s" m
                  | None -> ());
                  if List.length frames <> List.length clean_cases then
                    failf "worker-matrix clean job: %d CASE frame(s), want %d"
                      (List.length frames)
                      (List.length clean_cases));
                (match Serve.Client.request c Serve.Wire.Health with
                | Ok (Serve.Wire.Health { worker_pids; _ }) ->
                  if worker_pids = [] then
                    failf "worker-matrix HEALTH: no worker pids";
                  health_pids := worker_pids
                | Ok r ->
                  failf "worker-matrix HEALTH: unexpected %s"
                    (Serve.Wire.response_to_string r)
                | Error e -> failf "worker-matrix HEALTH: %s" e)));
          check_results "worker-matrix" ~state 0 (ref_job 0);
          (* 4b. the matrix itself *)
          let outcome =
            Serve.Chaos.run_worker_matrix ~timeout_s:60.0 ~socket
              ~backend:"rustbrain" ~opts
              ~plan:
                [ (Serve.Chaos.Wf_stop, nth 0); (Serve.Chaos.Wf_kill, nth 3);
                  (Serve.Chaos.Wf_oom, nth 4) ]
              ()
          in
          List.iter
            (fun (s : Serve.Chaos.worker_step) ->
              let label = Serve.Chaos.worker_fault_label s.Serve.Chaos.w_fault in
              if s.Serve.Chaos.w_job < 0 then
                failf "worker-matrix %s: %s" label s.Serve.Chaos.w_reason
              else begin
                if not s.Serve.Chaos.w_probe_ok then
                  failf "worker-matrix %s: server stopped answering" label;
                if not s.Serve.Chaos.w_reclaimed then
                  failf "worker-matrix %s: slot not reclaimed" label;
                if s.Serve.Chaos.w_crashes <> chaos_worker_max_crashes then
                  failf "worker-matrix %s: %d crash(es), want exactly %d"
                    label s.Serve.Chaos.w_crashes chaos_worker_max_crashes;
                let expect =
                  match s.Serve.Chaos.w_fault with
                  (* SIGSTOP'd and SIGKILLed workers both die to the
                     watchdog's (or their own) signal 9; the OOM worker
                     catches Out_of_memory at its memory cap and exits
                     137 *)
                  | Serve.Chaos.Wf_stop | Serve.Chaos.Wf_kill -> "signal 9"
                  | Serve.Chaos.Wf_oom -> "exit 137"
                in
                if not (contains s.Serve.Chaos.w_reason expect) then
                  failf "worker-matrix %s: reason %S lacks %S" label
                    s.Serve.Chaos.w_reason expect;
                (* the SIGSTOP rung is the bound the ladder guarantees:
                   each attempt reclaimed within stall + grace, plus
                   dispatch/respawn slack *)
                if
                  s.Serve.Chaos.w_fault = Serve.Chaos.Wf_stop
                  && s.Serve.Chaos.w_wall_s
                     > float_of_int chaos_worker_max_crashes
                       *. (chaos_worker_stall_s +. chaos_worker_grace_s +. 5.0)
                then
                  failf "worker-matrix sigstop: %.1fs to quarantine, over the \
                         ladder bound"
                    s.Serve.Chaos.w_wall_s
              end)
            outcome.Serve.Chaos.w_steps;
          if outcome.Serve.Chaos.w_pids = [] && !health_pids = [] then
            failf "worker-matrix: no worker pids ever observed";
          (* exactly the three poison jobs quarantined, exactly once each *)
          (let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
           match List.map fst (Serve.Store.quarantined store) with
           | [ 1; 2; 3 ] -> ()
           | ids ->
             failf "worker-matrix: quarantined ids [%s], want [1; 2; 3]"
               (String.concat "; " (List.map string_of_int ids)));
          (* 4c. drain: exits 0 on its own, and no worker outlives it *)
          (match Serve.Client.connect socket with
          | Error e -> failf "worker-matrix drain connect: %s" e
          | Ok c ->
            (match Serve.Client.request c Serve.Wire.Drain with
            | Ok (Serve.Wire.Draining _) -> ()
            | Ok r ->
              failf "worker-matrix DRAIN: unexpected %s"
                (Serve.Wire.response_to_string r)
            | Error e -> failf "worker-matrix DRAIN: %s" e);
            Serve.Client.close c);
          (match wait_status ~timeout_s:30.0 pid with
          | Some (Unix.WEXITED 0) -> reaped := true
          | Some _ ->
            reaped := true;
            failf "worker-matrix: drained server exited abnormally"
          | None -> failf "worker-matrix: drained server never exited");
          let leaked =
            List.filter
              (fun p ->
                match Unix.kill p 0 with
                | () -> true
                | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
                | exception Unix.Unix_error _ -> true)
              (List.sort_uniq compare (!health_pids @ outcome.Serve.Chaos.w_pids))
          in
          if leaked <> [] then
            failf "worker-matrix: %d worker process(es) leaked after drain: %s"
              (List.length leaked)
              (String.concat ", " (List.map string_of_int leaked));
          let report = Serve.Store.fsck ~heal:false ~dir:state () in
          if Serve.Store.fsck_count `Corrupt report > 0 then
            failf "worker-matrix fsck: %d corrupt record(s)"
              (Serve.Store.fsck_count `Corrupt report);
          if Serve.Store.fsck_count `Torn report > 0 then
            failf "worker-matrix fsck: %d torn record(s)"
              (Serve.Store.fsck_count `Torn report)));
  (* 5. spawn failure: a server whose workers cannot exec must stay up
     with every slot down under backoff — never run a job in its own
     process — and still admit jobs durably for a later start *)
  with_serve_dir (fun dir ->
      let socket = Filename.concat dir "sock" in
      let state = Filename.concat dir "state" in
      let pid =
        spawn_server ~mode:"no-exec" ~socket ~state ~runners:2 ()
      in
      let reaped = ref false in
      Fun.protect ~finally:(fun () -> if not !reaped then kill_server pid)
        (fun () ->
          match Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 socket with
          | Error e -> failf "no-exec connect: %s" e
          | Ok c ->
            Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
                let all_down () =
                  match Serve.Client.request c Serve.Wire.Health with
                  | Ok (Serve.Wire.Health { slots; worker_pids = []; _ })
                    when List.length slots = 2
                         && List.for_all (fun (_, s) -> s = "down") slots ->
                    Some ()
                  | _ -> None
                in
                if poll_until ~timeout_s:10.0 all_down = None then
                  failf "no-exec HEALTH: slots never all down";
                (match
                   Serve.Client.request c
                     (Serve.Wire.Submit
                        { tenant = "chaos"; backend = "rustbrain";
                          cases = Some [ nth 1 ]; opts = Some opts })
                 with
                | Ok (Serve.Wire.Accepted { id = 0; _ }) -> (
                  let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
                  (match Serve.Store.pending store with
                  | [ s ] when s.Serve.Store.id = 0 -> ()
                  | _ -> failf "no-exec: accepted job not durable");
                  Unix.sleepf 0.5;
                  match job_state c 0 with
                  | Some (Serve.Wire.Queued _) -> ()
                  | _ -> failf "no-exec: job 0 left the queue with no worker")
                | Ok r ->
                  failf "no-exec submit: unexpected %s"
                    (Serve.Wire.response_to_string r)
                | Error e -> failf "no-exec submit: %s" e);
                if all_down () = None then
                  failf "no-exec HEALTH: a slot came up without a worker";
                ignore
                  (Serve.Client.request c Serve.Wire.Shutdown
                    : (Serve.Wire.response, string) result));
            match wait_status ~timeout_s:30.0 pid with
            | Some (Unix.WEXITED 0) -> reaped := true
            | Some _ ->
              reaped := true;
              failf "no-exec: server exited abnormally after SHUTDOWN"
            | None -> failf "no-exec: server never exited after SHUTDOWN"));
  Option.iter (failf "%s") (leak_report ());
  if !failures > 0 then exit 1;
  Printf.printf
    "chaos serve ok: %d seeded client faults survived, worker poison exit \
     quarantined after exactly %d crashes with the server up, hung job \
     quarantined at start-up after %d kill -9s with its worker dead each \
     time, worker matrix (sigstop/sigkill/oom) reclaimed and quarantined \
     after exactly %d crashes with no leaked processes, unspawnable workers \
     left every slot down with admission durable, normal jobs \
     byte-identical, drain exited clean, fsck clean\n"
    12 max_crashes max_crashes chaos_worker_max_crashes
