(* The real `rustbrain serve` process and a single-threaded load generator
   that speaks Serve.Wire over two Unix-socket connections, multiplexed
   with select. Every frame is timestamped on arrival; with --trace the
   server's own serve-admit / serve-dispatch events are joined to those
   timestamps by job id afterwards. *)

open Common

(* -- server process ---------------------------------------------------------- *)

type server = {
  pid : int;  (* also the process group: the server runs in its own session *)
  socket : string;
  dir : string;
  trace_file : string option;
  spawned_at : float;
}

let spawn ~cli ~dir ?kb_dir ?(traced = false) () =
  let socket = Filename.concat dir "s.sock" in
  let state = Filename.concat dir "state" in
  let trace_file = if traced then Some (Filename.concat dir "serve-trace.jsonl") else None in
  let argv =
    [ cli; "serve"; "--socket"; socket; "--state-dir"; state; "--runners"; "2" ]
    @ (match kb_dir with Some k -> [ "--kb-dir"; k ] | None -> [])
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let log_fd = Unix.openfile (Filename.concat dir "server.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let spawned_at = now () in
  match Unix.fork () with
  | 0 -> (
    try
      ignore (Unix.setsid ());
      Unix.dup2 log_fd Unix.stdout;
      Unix.dup2 log_fd Unix.stderr;
      Unix.execv cli (Array.of_list argv)
    with _ -> Unix._exit 127)
  | pid ->
    Unix.close log_fd;
    { pid; socket; dir; trace_file; spawned_at }

let exited srv =
  match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Connect, retrying every millisecond while the socket is not there yet:
   the wait is part of what setup_s measures. *)
let connect ?(timeout_s = 20.0) srv =
  let deadline = now () +. timeout_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX srv.socket) with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      if now () > deadline then Error "server did not start listening"
      else if exited srv then Error "server exited before listening"
      else begin
        Unix.sleepf 0.001;
        go ()
      end
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Unix.error_message e)
  in
  go ()

let write_frame fd req =
  let s = Serve.Wire.encode (Serve.Wire.request_to_string req) in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Workers respawned after a death, from a HEALTH probe on a fresh
   connection. *)
let respawns srv =
  match connect ~timeout_s:2.0 srv with
  | Error _ -> None
  | Ok fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd)
    @@ fun () ->
    write_frame fd Serve.Wire.Health;
    let dec = Serve.Wire.decoder () and buf = Bytes.create 4096 in
    let deadline = now () +. 5.0 in
    let rec go () =
      match Unix.select [ fd ] [] [] (deadline -. now ()) with
      | [], _, _ -> None
      | _ -> (
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then None
        else
          match Serve.Wire.feed dec buf 0 n with
          | Ok (p :: _) -> (
            match Serve.Wire.parse_response p with
            | Ok (Serve.Wire.Health h) -> Some h.respawns
            | _ -> None)
          | Ok [] -> go ()
          | Error _ -> None)
    in
    go ()

(* SHUTDOWN over the wire and a bounded wait for a clean exit; then any
   __rb_worker still alive in the server's process group outlived it.
   Finally SIGKILL the whole group and reap. Returns the problems found. *)
let stop srv =
  (match connect ~timeout_s:2.0 srv with
  | Ok fd ->
    (try write_frame fd Serve.Wire.Shutdown with Unix.Unix_error _ -> ());
    let deadline = now () +. 20.0 in
    while (not (exited srv)) && now () < deadline do
      Unix.sleepf 0.005
    done;
    Unix.close fd
  | Error _ -> ());
  let problems =
    if exited srv then
      match
        List.filter (fun pid -> contains (cmdline pid) "__rb_worker") (live_group_members srv.pid)
      with
      | [] -> []
      | l -> [ Printf.sprintf "%d __rb_worker process(es) outlived the server" (List.length l) ]
    else [ "server did not exit after SHUTDOWN" ]
  in
  (try Unix.kill (-srv.pid) Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ());
  problems

(* spawn -> first successful connect, several times; each probe server is
   shut down and its state dir removed before the next *)
let setup_probes ~cli ~dir ?kb_dir ~n () =
  List.init n (fun i ->
      let d = Filename.concat dir (Printf.sprintf "probe-%d" i) in
      Unix.mkdir d 0o755;
      let srv = spawn ~cli ~dir:d ?kb_dir () in
      let r =
        match connect srv with
        | Ok fd ->
          let t = now () -. srv.spawned_at in
          Unix.close fd;
          Ok t
        | Error e -> Error e
      in
      ignore (stop srv);
      rm_rf d;
      r)

(* -- load generator ---------------------------------------------------------- *)

type status = Waiting | Sent | Accepted | Done | Failed of string

type job = {
  conn : int;
  seed : int;               (* the job's one repair seed *)
  cases : string list;
  expected : string array;  (* Report.to_json per CASE seq *)
  due : float option;       (* open loop: schedule slot *)
  mutable sent : float;
  mutable id : int;
  mutable case_times : float list;  (* newest first *)
  seen : bool array;        (* CASE seqs received *)
  mutable done_at : float;
  mutable status : status;
  mutable busy_retries : int;
  mutable retry_at : float;
}

let make_job ~conn ~seed ~cases ~expected ?due () =
  { conn; seed; cases; expected; due; sent = 0.0; id = -1; case_times = [];
    seen = Array.make (Array.length expected) false; done_at = 0.0;
    status = Waiting; busy_retries = 0; retry_at = 0.0 }

type conn = {
  fd : Unix.file_descr;
  tenant : string;
  dec : Serve.Wire.decoder;
  awaiting : job Queue.t;  (* SUBMITs sent, reply not yet read *)
}

type gen = {
  srv : server;
  conns : conn array;
  by_id : (int, job) Hashtbl.t;
  buf : Bytes.t;
  mutable busy_frames : int;
  mutable rss_peak_kb : int;
  mutable next_rss : float;
  mutable outstanding : int;
  mutable live : job list;  (* sent and not yet finished (lazily pruned) *)
  mutable on_finish : job -> unit;
  job_timeout_s : float;
}

let max_busy_retries = 3

let create srv ~fds ~tenants ~job_timeout_s =
  { srv;
    conns =
      Array.of_list
        (List.map2
           (fun fd tenant -> { fd; tenant; dec = Serve.Wire.decoder (); awaiting = Queue.create () })
           fds tenants);
    by_id = Hashtbl.create 1024; buf = Bytes.create 65536; busy_frames = 0;
    rss_peak_kb = 0; next_rss = 0.0; outstanding = 0; live = []; on_finish = ignore; job_timeout_s }

let rss_sample g =
  let t = now () in
  if t >= g.next_rss then begin
    g.next_rss <- t +. 0.2;
    let kb =
      List.fold_left
        (fun acc pid -> acc + status_kb (string_of_int pid) "VmRSS")
        (status_kb (string_of_int g.srv.pid) "VmRSS")
        (children g.srv.pid)
    in
    g.rss_peak_kb <- max g.rss_peak_kb kb
  end

let submit g job =
  let c = g.conns.(job.conn) in
  (* stamped before the write, so the server can never appear to admit a
     job before it was sent *)
  if job.status = Waiting then begin
    job.sent <- now ();
    g.outstanding <- g.outstanding + 1;
    g.live <- job :: g.live
  end;
  write_frame c.fd
    (Serve.Wire.Submit
       { tenant = c.tenant; backend = "rustbrain"; cases = Some job.cases;
         opts = Some { Exec.Campaign_opts.default with Exec.Campaign_opts.seeds = [ job.seed ] } });
  job.status <- Sent;
  Queue.push job c.awaiting

let finish g job status =
  (match job.status with
  | Done | Failed _ -> ()
  | _ ->
    job.status <- status;
    g.outstanding <- g.outstanding - 1;
    g.on_finish job);
  if job.id >= 0 then Hashtbl.remove g.by_id job.id

(* Wire.parse_response re-renders the CASE frame's report object through
   Rb_util.Json, which prints floats differently; Report's codec round
   trip is render-exact, so the frame is compared after it. *)
let same_report frame expected =
  match Rustbrain.Report.of_json frame with
  | Ok r -> String.equal (Rustbrain.Report.to_json r) expected
  | Error _ -> false

let on_response g c t = function
  | Serve.Wire.Accepted { id; _ } -> (
    match Queue.take_opt c.awaiting with
    | Some job ->
      job.id <- id;
      job.status <- Accepted;
      Hashtbl.replace g.by_id id job
    | None -> ())
  | Serve.Wire.Busy { retry_after_ms; reason } -> (
    g.busy_frames <- g.busy_frames + 1;
    match Queue.take_opt c.awaiting with
    | Some job when job.busy_retries < max_busy_retries ->
      job.busy_retries <- job.busy_retries + 1;
      job.retry_at <- t +. (float_of_int retry_after_ms /. 1000.0)
    | Some job -> finish g job (Failed ("BUSY past retries: " ^ reason))
    | None -> ())
  | Serve.Wire.Rejected { reason } -> (
    match Queue.take_opt c.awaiting with
    | Some job -> finish g job (Failed ("REJECTED: " ^ reason))
    | None -> ())
  | Serve.Wire.Case { id; seq; report_json; _ } -> (
    match Hashtbl.find_opt g.by_id id with
    | None -> ()
    | Some job ->
      job.case_times <- t :: job.case_times;
      (* output-check failures start with "output" *)
      if seq < 0 || seq >= Array.length job.expected then
        finish g job (Failed (Printf.sprintf "output: job %d CASE seq %d out of range" id seq))
      else if job.seen.(seq) then
        finish g job (Failed (Printf.sprintf "output: job %d CASE seq %d twice" id seq))
      else if not (same_report report_json job.expected.(seq)) then
        finish g job
          (Failed (Printf.sprintf "output mismatch: job %d case %s" id (List.nth job.cases seq)))
      else job.seen.(seq) <- true)
  | Serve.Wire.Done { id; failed; _ } -> (
    match Hashtbl.find_opt g.by_id id with
    | None -> ()
    | Some job ->
      job.done_at <- t;
      let missing = Array.exists not job.seen in
      finish g job
        (match failed with
        | Some f -> Failed ("job failed: " ^ f)
        | None when missing -> Failed (Printf.sprintf "output: job %d DONE before every CASE frame" id)
        | None -> Done))
  | Serve.Wire.Quarantined_result { id; reason; _ } -> (
    match Hashtbl.find_opt g.by_id id with
    | Some job -> finish g job (Failed ("QUARANTINED: " ^ reason))
    | None -> ())
  | Serve.Wire.Error_msg m -> (
    match Queue.take_opt c.awaiting with
    | Some job -> finish g job (Failed ("ERROR: " ^ m))
    | None -> ())
  | _ -> ()

exception Lost of string

(* Wait up to [timeout] seconds for frames, handle them, resend BUSY
   retries whose time has come, and time out overdue jobs. *)
let pump g ~timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) g.conns) in
  let ready, _, _ =
    try Unix.select fds [] [] (Float.max 0.0 timeout)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter
    (fun fd ->
      let c = List.find (fun c -> c.fd == fd) (Array.to_list g.conns) in
      let n = try Unix.read fd g.buf 0 (Bytes.length g.buf) with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0 in
      if n = 0 then raise (Lost "server closed a connection");
      let t = now () in
      match Serve.Wire.feed c.dec g.buf 0 n with
      | Error e -> raise (Lost ("bad frame from server: " ^ e))
      | Ok frames ->
        List.iter
          (fun payload ->
            match Serve.Wire.parse_response payload with
            | Ok r -> on_response g c t r
            | Error e -> raise (Lost ("unparsable response: " ^ e)))
          frames)
    ready;
  let t = now () in
  g.live <- List.filter (fun j -> j.status = Sent || j.status = Accepted) g.live;
  List.iter
    (fun job ->
      if job.status = Sent && job.retry_at > 0.0 && t >= job.retry_at then begin
        job.retry_at <- 0.0;
        submit g job
      end
      else if (job.status = Sent || job.status = Accepted) && t -. job.sent > g.job_timeout_s then
        finish g job (Failed "timed out"))
    g.live;
  rss_sample g

(* short waits while a BUSY-answered job is parked until its retry time *)
let wait_bound g timeout =
  if List.exists (fun j -> j.status = Sent && j.retry_at > 0.0) g.live then Float.min timeout 0.005
  else timeout

(* Closed loop: [depth] jobs outstanding per connection while [continue ()]
   holds when a job finishes, then drain. [next conn] yields that
   connection's next job. Returns the jobs run and the reaction delays
   (DONE read -> next SUBMIT written). *)
let closed_loop g ~depth ~continue ~next =
  let ran = ref [] and reactions = ref [] in
  let start job = ran := job :: !ran; submit g job in
  g.on_finish <-
    (fun job ->
      if continue () then begin
        let arrived = if job.done_at > 0.0 then job.done_at else now () in
        let j = next job.conn in
        start j;
        reactions := (j.sent -. arrived) :: !reactions
      end);
  Array.iteri (fun ci _ -> for _ = 1 to depth do start (next ci) done) g.conns;
  while g.outstanding > 0 do
    pump g ~timeout:(wait_bound g 0.05)
  done;
  g.on_finish <- ignore;
  (List.rev !ran, !reactions)

(* Open loop: every job carries its due time; send each when due,
   whatever is still outstanding. *)
let open_loop g jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let i = ref 0 in
  while !i < n || g.outstanding > 0 do
    let t = now () in
    while !i < n && Option.get jobs.(!i).due <= t do
      submit g jobs.(!i);
      incr i
    done;
    let timeout = if !i < n then Option.get jobs.(!i).due -. now () else 0.05 in
    pump g ~timeout:(wait_bound g timeout)
  done;
  Array.to_list jobs

(* -- server trace join ------------------------------------------------------- *)

(* job id -> (serve-admit time, serve-dispatch times) from `serve --trace` *)
let trace_events path =
  let tbl = Hashtbl.create 1024 in
  (match Rb_util.Fsfile.read path with
  | None -> ()
  | Some s ->
    List.iter
      (fun line ->
        match Obs.Trace.of_jsonl line with
        | Ok r -> (
          match List.assoc_opt "id" r.Obs.Trace.attrs with
          | Some (Obs.Trace.I id) ->
            let a, ds = Option.value ~default:(None, []) (Hashtbl.find_opt tbl id) in
            if r.Obs.Trace.name = "serve-admit" then Hashtbl.replace tbl id (Some r.Obs.Trace.t, ds)
            else if r.Obs.Trace.name = "serve-dispatch" then
              Hashtbl.replace tbl id (a, r.Obs.Trace.t :: ds)
          | _ -> ())
        | Error _ -> ())
      (String.split_on_char '\n' s));
  tbl

(* The layer clock of a finished job, when the server trace has both its
   admission and a dispatch (the last one before its first CASE frame). *)
let job_clock events job =
  match Hashtbl.find_opt events job.id with
  | Some (Some admitted, (_ :: _ as ds)) ->
    let cases = List.rev job.case_times in
    let first = match cases with c :: _ -> c | [] -> job.done_at in
    let dispatched =
      List.fold_left (fun acc d -> if d <= first && d > acc then d else acc) neg_infinity ds
    in
    let dispatched = if dispatched = neg_infinity then List.hd ds else dispatched in
    Some
      { Bench_stats.due = job.due; sent = job.sent; admitted; dispatched; cases;
        done_at = job.done_at }
  | _ -> None
