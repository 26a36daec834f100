(* Deterministic fault injection for the chaos harness: the plan maps case
   names to the fault fired at that case's boundary inside the worker
   process — the crash vectors the supervision layer must survive.
   Declarative (not a closure) so it serializes into worker Job frames. *)
type poison_mode = Jobrun.poison_mode =
  | Poison_exit
  | Poison_hang
  | Poison_raise
  | Poison_stop
  | Poison_kill
  | Poison_oom

type config = {
  socket : string;
  state_dir : string;
  runners : int;
  domains_per_job : int option;
  max_queue : int;
  quota : int;
  weights : (string * int) list;
  default_opts : Exec.Campaign_opts.t;
  tick_s : float;
  max_crashes : int;
  stall_timeout_s : float;
  job_timeout_s : float;
  abandon_grace_s : float;
  out_limit : int;
  evict_idle_s : float;
  poison : (string * poison_mode) list;
  worker_argv : string array;
  worker_mem_mb : int;
  rng_seed : int;
  kb_dir : string option;
  kb_readonly : bool;
  trace : Obs.Trace.t option;
  metrics : Obs.Metrics.registry option;
}

let default_config =
  { socket = "rustbrain.sock";
    state_dir = "serve-state";
    runners = 2;
    domains_per_job = None;
    max_queue = 128;
    quota = 64;
    weights = [];
    default_opts = Exec.Campaign_opts.default;
    tick_s = 0.02;
    max_crashes = 3;
    stall_timeout_s = 300.0;
    job_timeout_s = 3600.0;
    abandon_grace_s = 1.0;
    out_limit = 8 * 1024 * 1024;
    evict_idle_s = 30.0;
    poison = [];
    worker_argv = [| Sys.executable_name; "__rb_worker" |];
    worker_mem_mb = 0;
    rng_seed = 0x5eed;
    kb_dir = None;
    kb_readonly = true;
    trace = None;
    metrics = None }

type summary = {
  accepted : int;
  completed : int;
  failed : int;
  cancelled : int;
  busy : int;
  rejected : int;
  resumed : int;     (** jobs re-enqueued from the store at startup *)
  left_queued : int; (** still-durable jobs left for the next start *)
  quarantined : int; (** jobs moved to quarantine this run *)
  requeued : int;    (** watchdog/crash requeues this run *)
  evicted : int;     (** connections dropped for slow reading or overflow *)
}

(* Per-tenant slice of the shared knowledge store. Tenants never see each
   other's learned entries, and a read-only server skips a tenant whose
   slice does not exist yet (the job just runs KB-less) instead of failing
   the job on a store it is forbidden to create. *)
let tenant_kb (cfg : config) ~tenant =
  match cfg.kb_dir with
  | None -> (None, cfg.kb_readonly)
  | Some root ->
    let dir = Filename.concat root tenant in
    if cfg.kb_readonly && not (Sys.file_exists dir) then (None, cfg.kb_readonly)
    else (Some dir, cfg.kb_readonly)

(* -- worker slots -------------------------------------------------------- *)

(* Per-attempt supervision state for a job running on a worker process. *)
type attempt = {
  sub : Store.submission;
  started_at : float;
  mutable last_progress : float;
      (* last CASE frame or heartbeat seen from the worker *)
  mutable abort_at : float;  (* when the watchdog fired; 0.0 = it has not *)
  mutable termed : bool;     (* SIGTERM rung already climbed *)
  mutable killed : bool;     (* SIGKILL rung already climbed *)
}

(* Every slot is a supervised child process the watchdog can always
   SIGKILL. A slot whose spawns keep failing stays [Down] under the
   respawn backoff, and HEALTH says so; jobs wait durably in the queue. *)
type slot_state =
  | Down of { next_spawn_at : float }  (* no process; spawn when due *)
  | Starting of { w : Procpool.worker; since : float }  (* awaiting Hello *)
  | Ready of { w : Procpool.worker }
  | Busy of { w : Procpool.worker; job : attempt }

type slot = {
  mutable state : slot_state;
  mutable failures : int;
      (* consecutive deaths without a cleanly completed job: the respawn
         backoff exponent *)
}

let worker_of slot =
  match slot.state with
  | Down _ -> None
  | Starting { w; _ } | Ready { w } | Busy { w; _ } -> Some w

let attempt_of slot =
  match slot.state with Busy { job; _ } -> Some job | _ -> None

(* -- connections -------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  dec : Wire.decoder;
  out : Outbuf.t;                 (* bytes accepted but not yet written *)
  mutable last_flush : float;     (* last time the socket took any bytes *)
  mutable close_after_flush : bool;
  mutable closed : bool;
}

(* -- server state -------------------------------------------------------- *)

type t = {
  cfg : config;
  store : Store.t;
  queue : Store.submission Fairq.t;
  conns : (int, conn) Hashtbl.t;
  subscribers : (int, int) Hashtbl.t;  (* job id -> conn id *)
  slots : slot array;
  rng : Rb_util.Rng.t;  (* respawn-backoff jitter; seeded, deterministic *)
  sigchld_w : Unix.file_descr;
      (* write end of the SIGCHLD self-pipe: the handler writes one byte,
         the select loop wakes and reaps *)
  mutable shutting_down : bool;
  mutable draining : bool;
  mutable next_cid : int;
  mutable service_ewma_ms : float;  (* per-job wall service time estimate *)
  mutable accepted : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled : int;
  mutable busy : int;
  mutable rejected : int;
  mutable resumed : int;
  mutable quarantined_n : int;
  mutable requeued : int;
  mutable evicted : int;
  mutable respawns : int;
  mutable kills_term : int;
  mutable kills_kill : int;
}

(* Every reply — results streams, error replies, BUSY — goes through the
   connection's bounded outbound buffer; a client the buffer cannot absorb
   is evicted rather than allowed to wedge or balloon the server. The
   durable results file makes that safe: eviction costs the client a
   RESULTS re-fetch, never data. *)
let send t conn resp =
  if not conn.closed then
    if not (Outbuf.add conn.out (Wire.encode (Wire.response_to_string resp)))
    then begin
      t.evicted <- t.evicted + 1;
      conn.closed <- true
    end

let trace_event t name attrs =
  match t.cfg.trace with
  | None -> ()
  | Some sink -> Obs.Trace.event sink ~attrs name

let metric_inc t name =
  match t.cfg.metrics with
  | None -> ()
  | Some reg -> Obs.Metrics.(incr (counter reg name))

let metric_gauge t name v =
  match t.cfg.metrics with
  | None -> ()
  | Some reg -> Obs.Metrics.(set (gauge reg name) v)

let metric_observe t name v =
  match t.cfg.metrics with
  | None -> ()
  | Some reg ->
    Obs.Metrics.(
      observe
        (histogram
           ~buckets:[| 10.; 100.; 1000.; 5000.; 20000.; 60000.; 300000. |]
           reg name)
        v)

let active_jobs t =
  Array.fold_left
    (fun n s -> match s.state with Busy _ -> n + 1 | _ -> n)
    0 t.slots

(* Backpressure advice: how long a rejected client should wait before
   retrying. Scales with how much service time is queued ahead of it
   divided by the slots that will drain it; clamped so a cold server never
   says 0 and a drowning one never says "come back in an hour". *)
let retry_after_ms t =
  let queued = float_of_int (Fairq.depth t.queue + active_jobs t) in
  let per_slot = queued /. float_of_int (max 1 t.cfg.runners) in
  int_of_float (Float.min 30000. (Float.max 50. (t.service_ewma_ms *. per_slot)))

let job_cost (sub : Store.submission) =
  List.length sub.cases * List.length sub.opts.seeds

let is_running t id =
  Array.exists
    (fun s ->
      match attempt_of s with Some j -> j.sub.Store.id = id | None -> false)
    t.slots

let worker_pids t =
  Array.to_list t.slots
  |> List.filter_map (fun s ->
         match worker_of s with
         | Some w when w.Procpool.alive -> Some w.Procpool.pid
         | _ -> None)

(* -- request handling ---------------------------------------------------- *)

let corpus_names () =
  List.map (fun (c : Dataset.Case.t) -> c.Dataset.Case.name) Dataset.Corpus.all

(* A durable store write that fails (disk full, EIO, a record path
   blocked by a directory) fails only the request that needed it: the
   client gets ERROR naming the failure, and the server keeps serving *)
let durably f =
  match f () with
  | v -> Ok v
  | exception Sys_error m -> Error m
  | exception Unix.Unix_error (e, fn, arg) ->
    Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

let store_failed t conn what reason =
  send t conn (Wire.Error_msg (Printf.sprintf "%s not durable: %s" what reason))

let handle_submit t conn ~tenant ~backend ~cases ~opts =
  if t.shutting_down || t.draining then begin
    t.busy <- t.busy + 1;
    metric_inc t "serve.busy";
    send t conn
      (Wire.Busy
         { reason = (if t.draining then "draining" else "shutting-down");
           retry_after_ms = retry_after_ms t })
  end
  else begin
    let reject reason =
      t.rejected <- t.rejected + 1;
      metric_inc t "serve.rejected";
      send t conn (Wire.Rejected { reason })
    in
    let opts = Option.value ~default:t.cfg.default_opts opts in
    let case_names = Option.value ~default:(corpus_names ()) cases in
    let unknown =
      List.filter (fun n -> Dataset.Corpus.find n = None) case_names
    in
    (* a job's CASE frames are numbered by case name, so a name listed
       twice would stream two reports under one seq *)
    let repeated =
      let seen = Hashtbl.create 16 in
      List.sort_uniq compare
        (List.filter
           (fun n -> Hashtbl.mem seen n || (Hashtbl.add seen n (); false))
           case_names)
    in
    match Exec.Campaign_opts.validate opts with
    | Error reason -> reject reason
    | Ok opts ->
      if case_names = [] then reject "empty case list"
      else if unknown <> [] then
        reject (Printf.sprintf "unknown case(s): %s" (String.concat ", " unknown))
      else if repeated <> [] then
        reject
          (Printf.sprintf "case(s) listed more than once: %s"
             (String.concat ", " repeated))
      else begin
        match Exec.Campaign_opts.runner opts ~backend with
        | Error reason -> reject reason
        | Ok _ ->
          let cost = List.length case_names * List.length opts.seeds in
          (* admission-control decision first: only an admitted job is
             made durable, so BUSY never leaks a state file *)
          let decision =
            if Fairq.depth t.queue >= t.cfg.max_queue then
              Error
                (Fairq.Queue_full
                   { depth = Fairq.depth t.queue; limit = t.cfg.max_queue })
            else Ok ()
          in
          (match decision with
          | Error reject ->
            t.busy <- t.busy + 1;
            metric_inc t "serve.busy";
            trace_event t "serve-busy"
              [ ("tenant", Obs.Trace.S tenant);
                ("reason", Obs.Trace.S (Fairq.reject_reason reject)) ];
            send t conn
              (Wire.Busy
                 { reason = Fairq.reject_reason reject;
                   retry_after_ms = retry_after_ms t })
          | Ok () -> (
            (* durable admission: the store record lands (fsynced) before
               ACCEPTED is even queued for write *)
            match
              durably (fun () ->
                  Store.admit t.store ~tenant ~backend ~cases:case_names ~opts)
            with
            | Error reason -> store_failed t conn "admission" reason
            | Ok sub -> (
              match Fairq.admit t.queue ~tenant ~cost sub with
              | Error reject -> (
                (* quota rejection after the durable write would strand the
                   record; cancel it durably so the store stays truthful. If
                   even that write fails, the record stays queued on disk
                   and runs after a restart. *)
                match durably (fun () -> Store.cancel t.store sub.Store.id) with
                | Error reason -> store_failed t conn "quota cancellation" reason
                | Ok _ ->
                  t.busy <- t.busy + 1;
                  metric_inc t "serve.busy";
                  send t conn
                    (Wire.Busy
                       { reason = Fairq.reject_reason reject;
                         retry_after_ms = retry_after_ms t }))
              | Ok depth ->
                t.accepted <- t.accepted + 1;
                metric_inc t "serve.accepted";
                metric_gauge t "serve.queue_depth" (float_of_int depth);
                Hashtbl.replace t.subscribers sub.Store.id conn.cid;
                trace_event t "serve-admit"
                  [ ("id", Obs.Trace.I sub.Store.id);
                    ("tenant", Obs.Trace.S tenant);
                    ("cost", Obs.Trace.I cost);
                    ("depth", Obs.Trace.I depth) ];
                send t conn (Wire.Accepted { id = sub.Store.id; queued = depth }))))
      end
  end

let queued_position t id =
  (* jobs still queued ahead of [id], by admission order — approximate
     (fair queuing may dispatch a later tenant first) but monotone *)
  List.length
    (List.filter
       (fun (s : Store.submission) ->
         s.Store.id < id && not (is_running t s.Store.id))
       (Store.pending t.store))

let job_status t id =
  match Store.status t.store id with
  | None -> None
  | Some (Store.Done c) ->
    Some
      (Wire.Finished
         { cases = c.Store.cases; passed = c.Store.passed;
           failed = c.Store.failed })
  | Some Store.Cancelled -> Some Wire.Cancelled
  | Some (Store.Quarantined q) ->
    Some
      (Wire.Quarantined
         { crashes = q.Store.crashes; reason = q.Store.reason;
           last_case = q.Store.last_case })
  | Some Store.Queued ->
    if is_running t id then
      let total =
        match Store.submission t.store id with
        | Some sub -> job_cost sub
        | None -> 0
      in
      Some
        (Wire.Running
           { done_cases = Store.progress t.store id; total_cases = total })
    else Some (Wire.Queued { position = queued_position t id })

let handle_status t conn = function
  | Some id -> (
    match job_status t id with
    | Some state -> send t conn (Wire.Job { id; state })
    | None ->
      send t conn (Wire.Error_msg (Printf.sprintf "unknown job id %d" id)))
  | None ->
    let queued, completed, cancelled, quarantined = Store.counts t.store in
    let running = active_jobs t in
    send t conn
      (Wire.Server
         { queued = max 0 (queued - running);
           running;
           completed;
           cancelled;
           quarantined;
           tenants = Fairq.tenant_depths t.queue })

let handle_cancel t conn id =
  if is_running t id then
    send t conn (Wire.Rejected { reason = Printf.sprintf "job %d is running" id })
  else
    match durably (fun () -> Store.cancel t.store id) with
    | Error reason ->
      store_failed t conn (Printf.sprintf "cancellation of job %d" id) reason
    | Ok true ->
      t.cancelled <- t.cancelled + 1;
      metric_inc t "serve.cancelled";
      trace_event t "serve-cancel" [ ("id", Obs.Trace.I id) ];
      send t conn (Wire.Job { id; state = Wire.Cancelled })
    | Ok false ->
      send t conn
        (Wire.Rejected { reason = Printf.sprintf "job %d not cancellable" id })

let handle_results t conn id =
  match (Store.status t.store id, Store.submission t.store id) with
  | Some (Store.Quarantined q), _ ->
    (* terminator, not an error: the job is poison, no reports will ever
       come — the client should stop waiting and a human should triage *)
    send t conn
      (Wire.Quarantined_result
         { id; crashes = q.Store.crashes; reason = q.Store.reason;
           last_case = q.Store.last_case })
  | Some (Store.Done c), Some sub -> (
    match Store.read_results t.store id with
    | None -> send t conn (Wire.Error_msg "results file missing")
    | Some text ->
      let lines =
        String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
      in
      let ncases = max 1 (List.length sub.Store.cases) in
      List.iteri
        (fun seq line ->
          let case =
            match Rb_util.Json.parse line with
            | Ok j ->
              Option.value ~default:""
                (Option.bind (Rb_util.Json.member "case" j) Rb_util.Json.to_str)
            | Error _ -> ""
          in
          let seed =
            match List.nth_opt sub.Store.opts.Exec.Campaign_opts.seeds (seq / ncases) with
            | Some s -> s
            | None -> 0
          in
          send t conn (Wire.Case { id; seq; case; seed; report_json = line }))
        lines;
      send t conn
        (Wire.Done
           { id; cases = c.Store.cases; passed = c.Store.passed;
             failed = c.Store.failed }))
  | Some state, _ -> (
    ignore state;
    match job_status t id with
    | Some s -> send t conn (Wire.Job { id; state = s })
    | None -> send t conn (Wire.Error_msg (Printf.sprintf "unknown job id %d" id)))
  | None, _ ->
    send t conn (Wire.Error_msg (Printf.sprintf "unknown job id %d" id))

let slot_states t =
  Array.to_list
    (Array.mapi
       (fun i s ->
         ( i,
           match s.state with
           | Down _ -> "down"
           | Starting _ -> "starting"
           | Ready _ -> "idle"
           | Busy { w; job } ->
             Printf.sprintf "%s job %d (pid %d)"
               (if job.abort_at > 0.0 then "hung" else "running")
               job.sub.Store.id w.Procpool.pid ))
       t.slots)

let handle_request t conn = function
  | Wire.Submit { tenant; backend; cases; opts } ->
    handle_submit t conn ~tenant ~backend ~cases ~opts
  | Wire.Status id -> handle_status t conn id
  | Wire.Cancel id -> handle_cancel t conn id
  | Wire.Results id -> handle_results t conn id
  | Wire.Health ->
    let _, _, _, quarantined = Store.counts t.store in
    send t conn
      (Wire.Health
         { queued = Fairq.depth t.queue;
           running = active_jobs t;
           quarantined;
           draining = t.draining;
           slots = slot_states t;
           worker_pids = worker_pids t;
           respawns = t.respawns;
           kills_term = t.kills_term;
           kills_kill = t.kills_kill })
  | Wire.Drain ->
    t.draining <- true;
    trace_event t "serve-drain"
      [ ("active", Obs.Trace.I (active_jobs t));
        ("queued", Obs.Trace.I (Fairq.depth t.queue)) ];
    send t conn
      (Wire.Draining
         { active = active_jobs t; queued = Fairq.depth t.queue })
  | Wire.Shutdown ->
    t.shutting_down <- true;
    trace_event t "serve-shutdown"
      [ ("active", Obs.Trace.I (active_jobs t));
        ("queued", Obs.Trace.I (Fairq.depth t.queue)) ];
    send t conn
      (Wire.Shutting_down
         { active = active_jobs t; queued = Fairq.depth t.queue })

(* -- slot lifecycle ------------------------------------------------------ *)

let subscriber_conn t id =
  Option.bind (Hashtbl.find_opt t.subscribers id) (fun cid ->
      match Hashtbl.find_opt t.conns cid with
      | Some c when not c.closed -> Some c
      | _ -> None)

(* Durably mark the job poison and tell whoever is waiting. From here the
   job never runs again: excluded from pending/dispatch, its journal and
   crash record preserved under the state dir for triage. *)
let quarantine_job t (sub : Store.submission) ~reason ~backtrace =
  let id = sub.Store.id in
  let q = Store.quarantine t.store id ~reason ~backtrace in
  t.quarantined_n <- t.quarantined_n + 1;
  metric_inc t "serve.quarantined";
  trace_event t "serve-quarantine"
    [ ("id", Obs.Trace.I id);
      ("crashes", Obs.Trace.I q.Store.crashes);
      ("reason", Obs.Trace.S reason) ];
  (match subscriber_conn t id with
  | None -> ()
  | Some conn ->
    send t conn
      (Wire.Quarantined_result
         { id; crashes = q.Store.crashes; reason = q.Store.reason;
           last_case = q.Store.last_case }));
  Hashtbl.remove t.subscribers id

(* A job whose attempt ended in a crash (dead worker process, watchdog
   kill) either re-enters the queue — resuming at its journal frontier, so
   completed cases are never redone — or, past the crash budget, is
   quarantined as poison. *)
let requeue_or_quarantine t (sub : Store.submission) ~reason ~backtrace =
  if Store.crash_count t.store sub.Store.id >= t.cfg.max_crashes then
    quarantine_job t sub ~reason ~backtrace
  else begin
    t.requeued <- t.requeued + 1;
    metric_inc t "serve.jobs.requeued";
    trace_event t "serve-requeue"
      [ ("id", Obs.Trace.I sub.Store.id);
        ("crashes", Obs.Trace.I (Store.crash_count t.store sub.Store.id));
        ("reason", Obs.Trace.S reason) ];
    ignore
      (Fairq.admit ~force:true t.queue ~tenant:sub.Store.tenant
         ~cost:(job_cost sub) sub)
  end

(* -- worker supervision -------------------------------------------------- *)

let close_worker_fd (w : Procpool.worker) =
  if w.Procpool.alive then begin
    w.Procpool.alive <- false;
    try Unix.close w.Procpool.fd with Unix.Unix_error _ -> ()
  end

let kill_quiet pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let worker_down t slot ~crashed =
  if crashed then slot.failures <- slot.failures + 1;
  slot.state <-
    Down
      { next_spawn_at =
          (if slot.failures = 0 then 0.0
           else
             Unix.gettimeofday ()
             +. Procpool.backoff_delay ~failures:slot.failures t.rng) }

(* A spawn that fails (no fork, exhausted pids or fds) leaves the slot down
   under the same backoff as a worker that dies; one that cannot exec dies
   with exit 127 before Hello and takes the same path from the reap. *)
let spawn_worker t slot =
  (* RLIMIT_CPU from the job wall ceiling: per attempt, since a worker
     runs exactly one job. Skipped for effectively-unbounded budgets. *)
  let cpu_s =
    if t.cfg.job_timeout_s > 0.0 && t.cfg.job_timeout_s <= 86400.0 then
      int_of_float (Float.ceil t.cfg.job_timeout_s) + 5
    else 0
  in
  match
    Procpool.spawn ~argv:t.cfg.worker_argv ~mem_mb:t.cfg.worker_mem_mb ~cpu_s ()
  with
  | Ok w ->
    if slot.failures > 0 then begin
      t.respawns <- t.respawns + 1;
      metric_inc t "serve.workers.respawned"
    end;
    metric_inc t "serve.workers.spawned";
    slot.state <- Starting { w; since = Unix.gettimeofday () }
  | Error e ->
    trace_event t "serve-worker-spawn-failed" [ ("err", Obs.Trace.S e) ];
    worker_down t slot ~crashed:true

let finish_job t (job : attempt) ~cases ~passed ~failed ~replayed =
  let id = job.sub.Store.id in
  if job.abort_at > 0.0 && failed <> None then
    (* the cooperative abort landed at a case boundary: the journal holds
       every completed case, the attempt itself was a watchdog kill *)
    requeue_or_quarantine t job.sub ~reason:"aborted by watchdog"
      ~backtrace:""
  else begin
    let service_ms = (Unix.gettimeofday () -. job.started_at) *. 1000.0 in
    t.service_ewma_ms <- (0.7 *. t.service_ewma_ms) +. (0.3 *. service_ms);
    metric_observe t "serve.service_ms" service_ms;
    metric_observe t
      (Printf.sprintf "serve.service_ms.%s" job.sub.Store.tenant)
      service_ms;
    if replayed > 0 then metric_inc t "serve.jobs.resumed";
    (* the worker wrote the durable results file before sending Done *)
    let completion = { Store.cases; passed; failed } in
    Store.complete t.store id completion;
    (match failed with
    | None ->
      t.completed <- t.completed + 1;
      metric_inc t "serve.completed"
    | Some _ ->
      t.failed <- t.failed + 1;
      metric_inc t "serve.failed");
    trace_event t "serve-job-done"
      [ ("id", Obs.Trace.I id);
        ("cases", Obs.Trace.I cases);
        ("passed", Obs.Trace.I passed);
        ("failed", Obs.Trace.B (failed <> None)) ];
    (match subscriber_conn t id with
    | None -> ()
    | Some conn -> send t conn (Wire.Done { id; cases; passed; failed }));
    Hashtbl.remove t.subscribers id
  end

let handle_worker_msg t slot msg =
  let now = Unix.gettimeofday () in
  match (msg : Procpool.to_server) with
  | Procpool.Hello _ -> (
    match slot.state with
    | Starting { w; _ } -> slot.state <- Ready { w }
    | _ -> ())
  | Procpool.Heartbeat -> (
    match slot.state with
    | Busy { job; _ } -> job.last_progress <- now
    | _ -> ())
  | Procpool.Case_done { seq; case; seed; report_json } -> (
    match slot.state with
    | Busy { job; _ } -> (
      job.last_progress <- now;
      match subscriber_conn t job.sub.Store.id with
      | None -> ()
      | Some conn ->
        metric_inc t "serve.cases.streamed";
        send t conn
          (Wire.Case { id = job.sub.Store.id; seq; case; seed; report_json }))
    | _ -> ())
  | Procpool.Job_done { cases; passed; failed; replayed } -> (
    match slot.state with
    | Busy { w; job } ->
      (* one worker process per job attempt: the worker exits after Done
         and a fresh process (fresh rlimit budget, no state bleed)
         replaces it immediately *)
      close_worker_fd w;
      slot.failures <- 0;
      worker_down t slot ~crashed:false;
      finish_job t job ~cases ~passed ~failed ~replayed
    | _ -> ())

let read_worker t slot =
  match worker_of slot with
  | None -> ()
  | Some w when not w.Procpool.alive -> ()
  | Some w ->
    let buf = Bytes.create 65536 in
    let rec go () =
      match Unix.read w.Procpool.fd buf 0 (Bytes.length buf) with
      | 0 ->
        (* EOF: stop selecting on it; crash accounting happens at reap *)
        close_worker_fd w
      | n -> (
        match Wire.feed w.Procpool.dec buf 0 n with
        | Error _ ->
          (* a worker that breaks framing is not trustworthy: kill it;
             the reap turns this into ordinary crash accounting *)
          close_worker_fd w;
          kill_quiet w.Procpool.pid Sys.sigkill
        | Ok frames ->
          List.iter
            (fun payload ->
              match Procpool.to_server_of_string payload with
              | Ok m -> handle_worker_msg t slot m
              | Error _ -> ())
            frames;
          if w.Procpool.alive then go ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> close_worker_fd w
    in
    go ()

(* Unix.WSIGNALED carries OCaml's internal signal numbers (negative for
   the Sys.sig* set); translate the ones supervision produces into the
   conventional OS numbers so quarantine reasons read "signal 9", not
   "signal -7". *)
let os_signal s =
  if s = Sys.sigkill then 9
  else if s = Sys.sigterm then 15
  else if s = Sys.sigsegv then 11
  else if s = Sys.sigabrt then 6
  else if s = Sys.sigint then 2
  else if s = Sys.sighup then 1
  else if s = Sys.sigquit then 3
  else if s = Sys.sigbus then 7
  else if s = Sys.sigxcpu then 24
  else if s = Sys.sigxfsz then 25
  else if s = Sys.sigstop then 19
  else s

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" (os_signal s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" (os_signal s)

let handle_worker_death t pid status =
  Array.iter
    (fun slot ->
      match worker_of slot with
      | Some w when w.Procpool.pid = pid -> (
        (* drain frames the worker flushed before dying — CASE frames, or
           a Job_done racing its own exit (then the slot is already
           recycled below and this death is routine) *)
        if w.Procpool.alive then read_worker t slot;
        let died event attrs =
          close_worker_fd w;
          worker_down t slot ~crashed:true;
          trace_event t event
            (attrs
            @ [ ("pid", Obs.Trace.I pid);
                ("status", Obs.Trace.S (describe_status status)) ])
        in
        match slot.state with
        | Busy { job; _ } ->
          (* died without Job_done: a crashed attempt. SIGKILLed, OOM
             (rlimit), poison exit — all count toward quarantine. *)
          metric_inc t "serve.runner_crashes";
          died "serve-worker-crash" [ ("id", Obs.Trace.I job.sub.Store.id) ];
          requeue_or_quarantine t job.sub
            ~reason:
              (Printf.sprintf "worker pid %d died (%s)%s" pid
                 (describe_status status)
                 (if job.killed then " after watchdog SIGKILL"
                  else if job.termed then " after watchdog SIGTERM"
                  else ""))
            ~backtrace:""
        | Starting _ ->
          (* died before Hello: exec failure (exit 127) or early crash *)
          died "serve-worker-died-early" []
        | Ready _ -> died "serve-worker-died-idle" []
        | Down _ -> () (* recycled after Job_done: routine *))
      | _ -> ())
    t.slots

(* Reap every dead child (SIGCHLD self-pipe wakes the loop; this also runs
   each tick as a belt-and-braces sweep) and turn worker deaths into slot
   state transitions and crash accounting. *)
let reap_children t =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> ()
    | pid, status ->
      handle_worker_death t pid status;
      go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let find_ready t =
  Array.fold_left
    (fun found s ->
      match (found, s.state) with
      | None, Ready { w } -> Some (s, w)
      | _ -> found)
    None t.slots

let dispatch t =
  let continue = ref true in
  while !continue do
    match find_ready t with
    | None -> continue := false
    | Some (slot, w) -> (
      match Fairq.next t.queue with
      | None -> continue := false
      | Some (_tenant, sub) -> (
        match Store.status t.store sub.Store.id with
        | Some Store.Queued ->
          if Store.crash_count t.store sub.Store.id >= t.cfg.max_crashes then
            (* the crash budget can be exhausted while the job sits queued —
               e.g. counted across whole-server kills — never hand it to
               another worker *)
            quarantine_job t sub
              ~reason:
                (Printf.sprintf "crashed its runner %d times"
                   (Store.crash_count t.store sub.Store.id))
              ~backtrace:""
          else begin
            trace_event t "serve-dispatch"
              [ ("id", Obs.Trace.I sub.Store.id);
                ("tenant", Obs.Trace.S sub.Store.tenant) ];
            (* durable before the dispatch: if this attempt dies with its
               worker or with the whole server, the next start counts it *)
            Store.begin_attempt t.store sub.Store.id;
            let kb_dir, kb_readonly =
              tenant_kb t.cfg ~tenant:sub.Store.tenant
            in
            let spec =
              { Procpool.id = sub.Store.id;
                backend = sub.Store.backend;
                cases = sub.Store.cases;
                opts = sub.Store.opts;
                journal_dir = Store.journal_dir t.store sub.Store.id;
                results_path = Store.results_path t.store sub.Store.id;
                domains =
                  (match sub.Store.opts.Exec.Campaign_opts.domains with
                  | Some _ as d -> d
                  | None -> t.cfg.domains_per_job);
                poison = t.cfg.poison;
                kb_dir; kb_readonly }
            in
            if Procpool.send w (Procpool.Job spec) then begin
              let now = Unix.gettimeofday () in
              slot.state <-
                Busy
                  { w;
                    job =
                      { sub; started_at = now; last_progress = now;
                        abort_at = 0.0; termed = false; killed = false } }
            end
            else begin
              (* the worker would not take the frame: not a job crash —
                 undo the attempt, requeue the job, replace the worker *)
              Store.end_attempt t.store sub.Store.id;
              ignore
                (Fairq.admit ~force:true t.queue ~tenant:sub.Store.tenant
                   ~cost:(job_cost sub) sub);
              close_worker_fd w;
              kill_quiet w.Procpool.pid Sys.sigkill;
              worker_down t slot ~crashed:true
            end
          end
        | _ -> () (* cancelled while queued: drained, never started *)))
  done;
  metric_gauge t "serve.queue_depth" (float_of_int (Fairq.depth t.queue));
  metric_gauge t "serve.active" (float_of_int (active_jobs t))

(* Watchdog and lifecycle pass, once per tick. Escalation ladder on a
   stalled or over-budget job: cooperative Cancel frame at t0, SIGTERM at
   t0 + grace/2, SIGKILL at t0 + grace — so a SIGSTOP'd or hard-hung
   worker is gone within stall_timeout + grace, the bound the chaos
   worker-fault matrix asserts. *)
let poll_workers t =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun slot ->
      match slot.state with
      | Busy { w; job } ->
        if job.abort_at = 0.0 then begin
          let stalled = now -. job.last_progress > t.cfg.stall_timeout_s in
          let over = now -. job.started_at > t.cfg.job_timeout_s in
          if stalled || over then begin
            job.abort_at <- now;
            metric_inc t "serve.watchdog.fired";
            trace_event t "serve-watchdog"
              [ ("id", Obs.Trace.I job.sub.Store.id);
                ( "why",
                  Obs.Trace.S (if stalled then "stalled" else "over-budget") )
              ];
            ignore (Procpool.send w Procpool.Cancel)
          end
        end
        else begin
          let dt = now -. job.abort_at in
          if (not job.termed) && dt > 0.5 *. t.cfg.abandon_grace_s then begin
            job.termed <- true;
            t.kills_term <- t.kills_term + 1;
            metric_inc t "serve.workers.sigterm";
            trace_event t "serve-worker-term"
              [ ("id", Obs.Trace.I job.sub.Store.id);
                ("pid", Obs.Trace.I w.Procpool.pid) ];
            kill_quiet w.Procpool.pid Sys.sigterm
          end;
          if (not job.killed) && dt > t.cfg.abandon_grace_s then begin
            job.killed <- true;
            t.kills_kill <- t.kills_kill + 1;
            metric_inc t "serve.workers.sigkill";
            trace_event t "serve-worker-kill"
              [ ("id", Obs.Trace.I job.sub.Store.id);
                ("pid", Obs.Trace.I w.Procpool.pid) ];
            kill_quiet w.Procpool.pid Sys.sigkill
          end
        end
      | Starting { w; since } ->
        (* a worker that never says Hello is as hung as one that never
           finishes a case; the reap restarts it under backoff *)
        if now -. since > 10.0 then kill_quiet w.Procpool.pid Sys.sigkill
      | Down { next_spawn_at } ->
        let wanted =
          (not t.shutting_down)
          && not
               (t.draining && Fairq.depth t.queue = 0 && active_jobs t = 0)
        in
        if wanted && now >= next_spawn_at then spawn_worker t slot
      | Ready _ -> ())
    t.slots

(* Exit-path cleanup: close every control channel (EOF alone makes an idle
   worker exit), SIGTERM, give stragglers a short grace, SIGKILL the rest,
   and reap them all — the no-leaked-children half of the drain contract. *)
let shutdown_workers t =
  let live =
    Array.to_list t.slots
    |> List.filter_map (fun s ->
           match worker_of s with
           | Some w ->
             close_worker_fd w;
             kill_quiet w.Procpool.pid Sys.sigterm;
             Some w.Procpool.pid
           | None -> None)
  in
  Array.iter (fun s -> s.state <- Down { next_spawn_at = infinity }) t.slots;
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec reap_all pending =
    if pending <> [] then begin
      let still =
        List.filter
          (fun pid ->
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> true
            | _ -> false
            | exception Unix.Unix_error _ -> false)
          pending
      in
      if still <> [] then
        if Unix.gettimeofday () > deadline then
          List.iter
            (fun pid ->
              kill_quiet pid Sys.sigkill;
              try ignore (Rb_util.Retry.on_eintr (fun () -> Unix.waitpid [] pid))
              with Unix.Unix_error _ -> ())
            still
        else begin
          Unix.sleepf 0.02;
          reap_all still
        end
    end
  in
  reap_all live

(* -- socket plumbing ----------------------------------------------------- *)

let try_flush conn =
  if (not conn.closed) && not (Outbuf.is_empty conn.out) then begin
    let progressed = ref false in
    let continue = ref true in
    while !continue do
      match Outbuf.peek conn.out with
      | None -> continue := false
      | Some (chunk, off) -> (
        let len = String.length chunk - off in
        match
          Rb_util.Retry.on_eintr (fun () ->
              Unix.write_substring conn.fd chunk off len)
        with
        | 0 -> continue := false
        | n ->
          progressed := true;
          Outbuf.consume conn.out n;
          if n < len then continue := false
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
        | exception Unix.Unix_error _ ->
          conn.closed <- true;
          continue := false)
    done;
    if !progressed then conn.last_flush <- Unix.gettimeofday ()
  end

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end
  else (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Hashtbl.remove t.conns conn.cid

let read_conn t conn =
  let buf = Bytes.create 65536 in
  let rec go () =
    match
      Rb_util.Retry.on_eintr (fun () ->
          Unix.read conn.fd buf 0 (Bytes.length buf))
    with
    | 0 -> close_conn t conn
    | n -> (
      metric_inc t "serve.frames.fed";
      match Wire.feed conn.dec buf 0 n with
      | Ok frames ->
        List.iter
          (fun payload ->
            match Wire.parse_request payload with
            | Ok req -> handle_request t conn req
            | Error e ->
              metric_inc t "serve.protocol_errors";
              send t conn (Wire.Error_msg e))
          frames;
        go ()
      | Error e ->
        (* framing violation: this connection is unrecoverable, the loop
           is not — answer, flush, drop *)
        metric_inc t "serve.protocol_errors";
        trace_event t "serve-protocol-error" [ ("err", Obs.Trace.S e) ];
        send t conn (Wire.Error_msg e);
        conn.close_after_flush <- true)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> close_conn t conn
  in
  go ()

(* -- main loop ----------------------------------------------------------- *)

let run ?(on_ready = fun (_ : string) -> ()) cfg =
  (* a dead client mid-write must be an EPIPE error, not a process kill *)
  let previous_sigpipe =
    match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | s -> Some s
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  (* open_dir runs the fsck scrub first: a state dir that survived kill -9
     or rot comes up with damage classified and contained, never fatal *)
  let store = Store.open_dir ~dir:cfg.state_dir () in
  let queue =
    Fairq.create ~max_queue:cfg.max_queue ~quota:cfg.quota ~weights:cfg.weights ()
  in
  (* SIGCHLD self-pipe: the handler writes one byte, folding child-death
     wakeups into the same select the sockets use *)
  let sigchld_r, sigchld_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock sigchld_r;
  Unix.set_nonblock sigchld_w;
  let t =
    { cfg; store; queue; conns = Hashtbl.create 16;
      subscribers = Hashtbl.create 16;
      slots =
        Array.init (max 1 cfg.runners) (fun _ ->
            { state = Down { next_spawn_at = 0.0 }; failures = 0 });
      rng = Rb_util.Rng.create cfg.rng_seed;
      sigchld_w; shutting_down = false; draining = false;
      next_cid = 0; service_ewma_ms = 1000.0; accepted = 0; completed = 0;
      failed = 0; cancelled = 0; busy = 0; rejected = 0; resumed = 0;
      quarantined_n = 0; requeued = 0; evicted = 0; respawns = 0;
      kills_term = 0; kills_kill = 0 }
  in
  let chld_byte = Bytes.make 1 '\001' in
  let previous_sigchld =
    match
      Sys.signal Sys.sigchld
        (Sys.Signal_handle
           (fun _ ->
             try ignore (Unix.write t.sigchld_w chld_byte 0 1)
             with Unix.Unix_error _ -> ()))
    with
    | s -> Some s
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  (match cfg.trace with
  | None -> ()
  | Some sink -> Obs.Trace.set_time_source sink Unix.gettimeofday);
  (* durable resume: everything accepted and unfinished before the last
     kill re-enters the queue, before the socket even opens. A job whose
     crash WAL already shows the budget spent — it kept killing the whole
     server — is quarantined here instead of being requeued to kill it
     again. *)
  List.iter
    (fun (sub : Store.submission) ->
      if Store.crash_count t.store sub.Store.id >= cfg.max_crashes then
        quarantine_job t sub
          ~reason:
            (Printf.sprintf "crashed the server or its runner %d times"
               (Store.crash_count t.store sub.Store.id))
          ~backtrace:""
      else begin
        t.resumed <- t.resumed + 1;
        metric_inc t "serve.jobs.requeued";
        ignore
          (Fairq.admit ~force:true t.queue ~tenant:sub.Store.tenant
             ~cost:(job_cost sub) sub)
      end)
    (Store.pending t.store);
  trace_event t "serve-start"
    [ ("resumed", Obs.Trace.I t.resumed);
      ("runners", Obs.Trace.I cfg.runners) ];
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Rb_util.Fsfile.remove_if_exists cfg.socket;
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  on_ready cfg.socket;
  let accept_new () =
    let rec go () =
      match
        Rb_util.Retry.on_eintr (fun () -> Unix.accept ~cloexec:true listen_fd)
      with
      | fd, _ ->
        Unix.set_nonblock fd;
        let cid = t.next_cid in
        t.next_cid <- cid + 1;
        Hashtbl.replace t.conns cid
          { fd; cid; dec = Wire.decoder ();
            out = Outbuf.create ~limit:cfg.out_limit;
            last_flush = Unix.gettimeofday (); close_after_flush = false;
            closed = false };
        metric_inc t "serve.connections";
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  let drain_sigchld () =
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read sigchld_r buf 0 (Bytes.length buf) with
      | 0 -> ()
      | _ -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  let conn_list () = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let all_flushed () =
    List.for_all (fun c -> Outbuf.is_empty c.out) (conn_list ())
  in
  let finished () =
    (t.shutting_down && active_jobs t = 0 && all_flushed ())
    || (t.draining
       && active_jobs t = 0
       && Fairq.depth t.queue = 0
       && all_flushed ())
  in
  while not (finished ()) do
    let conns = conn_list () in
    (* (fd, slot) pairs rebuilt each tick from live worker state *)
    let wfds =
      Array.to_list t.slots
      |> List.filter_map (fun s ->
             match worker_of s with
             | Some w when w.Procpool.alive -> Some (w.Procpool.fd, s)
             | _ -> None)
    in
    let rds =
      (listen_fd :: sigchld_r :: List.map fst wfds)
      @ List.map (fun c -> c.fd) conns
    in
    let wrs =
      List.filter_map
        (fun c -> if not (Outbuf.is_empty c.out) then Some c.fd else None)
        conns
    in
    let rd, wr, _ =
      Rb_util.Retry.on_eintr (fun () -> Unix.select rds wrs [] cfg.tick_s)
    in
    if List.mem listen_fd rd then accept_new ();
    List.iter
      (fun c -> if (not c.closed) && List.mem c.fd rd then read_conn t c)
      conns;
    List.iter
      (fun c -> if (not c.closed) && List.mem c.fd wr then try_flush c)
      conns;
    (* worker frames before the reap so a Job_done beats its own SIGCHLD;
       the reap before the watchdog so deaths become respawns this tick *)
    List.iter
      (fun (fd, slot) -> if List.mem fd rd then read_worker t slot)
      wfds;
    if List.mem sigchld_r rd then drain_sigchld ();
    reap_children t;
    (* draining still dispatches — the point is to finish the queue *)
    if not t.shutting_down then dispatch t;
    poll_workers t;
    if t.shutting_down then
      (* still drain finished work, but start nothing new *)
      metric_gauge t "serve.active" (float_of_int (active_jobs t));
    (* eager flush: a response written this tick should not wait for the
       next select round trip *)
    List.iter (fun c -> if not c.closed then try_flush c) (conn_list ());
    (* idle-reader eviction: pending output and a socket that has taken
       nothing for evict_idle_s — a slowloris reader holding buffer memory
       hostage. The durable results file makes dropping it safe. *)
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        if
          (not c.closed)
          && (not (Outbuf.is_empty c.out))
          && now -. c.last_flush > cfg.evict_idle_s
        then begin
          t.evicted <- t.evicted + 1;
          metric_inc t "serve.evicted";
          trace_event t "serve-evict" [ ("cid", Obs.Trace.I c.cid) ];
          c.closed <- true
        end)
      (conn_list ());
    List.iter
      (fun c ->
        if c.closed || (c.close_after_flush && Outbuf.is_empty c.out) then
          close_conn t c)
      (conn_list ())
  done;
  shutdown_workers t;
  List.iter (fun c -> close_conn t c) (conn_list ());
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Rb_util.Fsfile.remove_if_exists cfg.socket;
  (match previous_sigchld with
  | Some s -> (try Sys.set_signal Sys.sigchld s with Invalid_argument _ | Sys_error _ -> ())
  | None -> ());
  (try Unix.close sigchld_r with Unix.Unix_error _ -> ());
  (try Unix.close t.sigchld_w with Unix.Unix_error _ -> ());
  (match previous_sigpipe with
  | Some s -> (try Sys.set_signal Sys.sigpipe s with Invalid_argument _ | Sys_error _ -> ())
  | None -> ());
  let queued, _, _, _ = Store.counts t.store in
  { accepted = t.accepted;
    completed = t.completed;
    failed = t.failed;
    cancelled = t.cancelled;
    busy = t.busy;
    rejected = t.rejected;
    resumed = t.resumed;
    left_queued = queued;
    quarantined = t.quarantined_n;
    requeued = t.requeued;
    evicted = t.evicted }
