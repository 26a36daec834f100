(* Process-isolated runner pool, the only way the server runs a job. Each
   runner slot fork/execs a hidden worker subcommand of the server's own
   binary and speaks the wire framing over a socketpair dup2'd onto the
   worker's stdin. A wedged worker can always be reclaimed: the escalation
   ladder ends in SIGKILL, which no userspace state can block.

   One worker process runs one job attempt, then exits: rlimit budgets
   (RLIMIT_AS from --worker-mem-mb, RLIMIT_CPU from --job-timeout) are
   per-attempt by construction, and no heap or global state bleeds
   between jobs. The supervisor respawns workers with exponential backoff
   and seeded jitter, so a crash-looping environment degrades to bounded
   churn rather than a fork bomb. *)

external set_mem_limit_mb : int -> bool = "rb_procpool_set_mem_limit_mb"
external set_cpu_limit_s : int -> bool = "rb_procpool_set_cpu_limit_s"
external set_parent_death_kill : unit -> bool = "rb_procpool_set_pdeathsig"

(* -- protocol ----------------------------------------------------------- *)

type job_spec = {
  id : int;
  backend : string;
  cases : string list;
  opts : Exec.Campaign_opts.t;          (* wire subset, Campaign_opts codec *)
  journal_dir : string;
  results_path : string;
  domains : int option;
  poison : (string * Jobrun.poison_mode) list;
  (* the persistent-KB fields are deliberately NOT part of the client-facing
     Campaign_opts wire codec (a remote client must not point the server at
     files); the server chooses them per tenant and they ride this
     server-to-worker frame only *)
  kb_dir : string option;
  kb_readonly : bool;
}

type to_worker =
  | Job of job_spec
  | Cancel  (* cooperative rung of the escalation ladder *)

type to_server =
  | Hello of { pid : int }  (* handshake: the worker is ready for a job *)
  | Heartbeat               (* liveness between cases of a slow job *)
  | Case_done of { seq : int; case : string; seed : int; report_json : string }
  | Job_done of {
      cases : int;
      passed : int;
      failed : string option;
      replayed : int;
    }
      (* sent only after the durable results file is written: the server
         may mark the job complete the moment this frame arrives *)

open Rb_util.Json

let num i = Num (float_of_int i)

let to_worker_string = function
  | Cancel -> to_string (Obj [ ("type", Str "cancel") ])
  | Job j ->
    to_string
      (Obj
         (List.concat
            [ [ ("type", Str "job"); ("id", num j.id);
                ("backend", Str j.backend);
                ("cases", List (List.map (fun c -> Str c) j.cases));
                ("opts", Exec.Campaign_opts.to_wire_json j.opts);
                ("journal_dir", Str j.journal_dir);
                ("results_path", Str j.results_path) ];
              (match j.domains with None -> [] | Some d -> [ ("domains", num d) ]);
              (match j.kb_dir with
              | None -> []
              | Some d ->
                ("kb_dir", Str d)
                :: (if j.kb_readonly then [ ("kb_readonly", Bool true) ] else []));
              (match j.poison with
              | [] -> []
              | ps ->
                [ ( "poison",
                    Obj
                      (List.map
                         (fun (c, m) -> (c, Str (Jobrun.poison_label m)))
                         ps) ) ]) ]))

let to_worker_of_string s =
  let ( let* ) r f = Result.bind r f in
  let* json =
    match parse s with Ok j -> Ok j | Error e -> Error ("worker frame: " ^ e)
  in
  match Option.bind (member "type" json) to_str with
  | Some "cancel" -> Ok Cancel
  | Some "job" ->
    let int_field name =
      match Option.bind (member name json) to_int with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "job frame: missing %S" name)
    in
    let str_field name =
      match Option.bind (member name json) to_str with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "job frame: missing %S" name)
    in
    let* id = int_field "id" in
    let* backend = str_field "backend" in
    let* journal_dir = str_field "journal_dir" in
    let* results_path = str_field "results_path" in
    let* cases =
      match Option.map (List.map to_str) (Option.bind (member "cases" json) to_list) with
      | Some ss when not (List.mem None ss) -> Ok (List.filter_map Fun.id ss)
      | _ -> Error "job frame: bad \"cases\""
    in
    let* opts =
      match member "opts" json with
      | None -> Error "job frame: missing \"opts\""
      | Some o -> Exec.Campaign_opts.of_wire_json o
    in
    let domains = Option.bind (member "domains" json) to_int in
    let poison =
      match member "poison" json with
      | Some (Obj fields) ->
        List.filter_map
          (fun (c, v) ->
            Option.bind (to_str v) (fun l ->
                Option.map (fun m -> (c, m)) (Jobrun.poison_of_label l)))
          fields
      | _ -> []
    in
    let kb_dir = Option.bind (member "kb_dir" json) to_str in
    let kb_readonly =
      Option.value ~default:false (Option.bind (member "kb_readonly" json) to_bool)
    in
    Ok
      (Job
         { id; backend; cases; opts; journal_dir; results_path; domains; poison;
           kb_dir; kb_readonly })
  | Some t -> Error (Printf.sprintf "unknown worker frame type %S" t)
  | None -> Error "worker frame: missing \"type\""

(* [Case_done] splices the rendered report verbatim, mirroring [Wire.Case]:
   the bytes the server relays to subscribers are exactly the bytes
   [Report.to_json] produced in the worker. *)
let to_server_string = function
  | Hello { pid } -> to_string (Obj [ ("type", Str "hello"); ("pid", num pid) ])
  | Heartbeat -> to_string (Obj [ ("type", Str "heartbeat") ])
  | Case_done { seq; case; seed; report_json } ->
    Printf.sprintf
      {|{"type":"case","seq":%d,"case":%s,"seed":%d,"report":%s}|} seq
      (escape case) seed report_json
  | Job_done { cases; passed; failed; replayed } ->
    to_string
      (Obj
         ([ ("type", Str "done"); ("cases", num cases); ("passed", num passed);
            ("replayed", num replayed) ]
         @ match failed with None -> [] | Some m -> [ ("failed", Str m) ]))

let to_server_of_string s =
  let ( let* ) r f = Result.bind r f in
  let* json =
    match parse s with Ok j -> Ok j | Error e -> Error ("worker frame: " ^ e)
  in
  let int_field name =
    match Option.bind (member name json) to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "worker frame: missing %S" name)
  in
  match Option.bind (member "type" json) to_str with
  | Some "hello" ->
    let* pid = int_field "pid" in
    Ok (Hello { pid })
  | Some "heartbeat" -> Ok Heartbeat
  | Some "case" ->
    let* seq = int_field "seq" in
    let* seed = int_field "seed" in
    let* case =
      match Option.bind (member "case" json) to_str with
      | Some c -> Ok c
      | None -> Error "worker frame: missing \"case\""
    in
    let* report_json =
      match member "report" json with
      | Some r -> Ok (to_string r)
      | None -> Error "worker frame: missing \"report\""
    in
    Ok (Case_done { seq; case; seed; report_json })
  | Some "done" ->
    let* cases = int_field "cases" in
    let* passed = int_field "passed" in
    let replayed =
      Option.value ~default:0 (Option.bind (member "replayed" json) to_int)
    in
    let failed = Option.bind (member "failed" json) to_str in
    Ok (Job_done { cases; passed; failed; replayed })
  | Some t -> Error (Printf.sprintf "unknown worker frame type %S" t)
  | None -> Error "worker frame: missing \"type\""

(* -- supervision helpers ------------------------------------------------ *)

(* Exponential backoff with seeded jitter: base 0.25s doubling to a 30s
   cap, scaled by a uniform ±25% draw so a fleet of crashed workers does
   not respawn in lockstep. Deterministic per server RNG seed. *)
let backoff_delay ~failures rng =
  let exp = min 7 (max 0 (failures - 1)) in
  let base = Float.min 30.0 (0.25 *. Float.pow 2.0 (float_of_int exp)) in
  base *. (0.75 +. (0.5 *. Rb_util.Rng.float rng))

type worker = {
  pid : int;
  fd : Unix.file_descr;  (* supervisor's socketpair end, nonblocking *)
  dec : Wire.decoder;
  mutable alive : bool;  (* flips false on EOF/IO error; reaped via SIGCHLD *)
}

let spawn ~argv ?(mem_mb = 0) ?(cpu_s = 0) () =
  if Array.length argv = 0 then Error "procpool: empty worker argv"
  else
    match
      Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
    with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "socketpair: %s" (Unix.error_message e))
    | sup_end, child_end -> (
      let refused msg =
        (try Unix.close sup_end with Unix.Unix_error _ -> ());
        (try Unix.close child_end with Unix.Unix_error _ -> ());
        Error ("fork: " ^ msg)
      in
      let server = Unix.getpid () in
      match Unix.fork () with
      | exception Unix.Unix_error (e, _, _) -> refused (Unix.error_message e)
      | exception Failure msg ->
        (* OCaml 5 refuses to fork a process that has ever run a second
           domain *)
        refused msg
      | 0 ->
        (* child: the socketpair becomes stdin — a bidirectional control
           channel dup2 clears close-on-exec for. Rlimits go on before
           exec so even a worker that fails to start is capped. The
           parent-death signal makes the worker die with a kill -9'd
           server, which never reaches its reaping exit path; a worker
           hung inside a case would never read the EOF that ends it
           otherwise. The getppid check covers a server that died before
           the prctl. *)
        (try
           (try Unix.close sup_end with Unix.Unix_error _ -> ());
           if child_end <> Unix.stdin then begin
             Unix.dup2 child_end Unix.stdin;
             Unix.close child_end
           end;
           if mem_mb > 0 then ignore (set_mem_limit_mb mem_mb);
           if cpu_s > 0 then ignore (set_cpu_limit_s cpu_s);
           ignore (set_parent_death_kill ());
           if Unix.getppid () <> server then Unix._exit 127;
           Unix.execv argv.(0) argv
         with _ -> ());
        Unix._exit 127
      | pid ->
        (try Unix.close child_end with Unix.Unix_error _ -> ());
        Unix.set_nonblock sup_end;
        Ok { pid; fd = sup_end; dec = Wire.decoder (); alive = true })

(* Best-effort framed write to a worker. Control frames are tiny and a
   healthy worker keeps its socket drained, so a short select-bounded
   retry suffices; a worker that cannot take a Cancel frame is exactly
   the worker the SIGTERM/SIGKILL rungs exist for. *)
let send w msg =
  let s = Wire.encode (to_worker_string msg) in
  let n = String.length s in
  let deadline = Unix.gettimeofday () +. 0.5 in
  let rec go off =
    if off >= n then true
    else if Unix.gettimeofday () > deadline then false
    else
      match Unix.write_substring w.fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ w.fd ] [] 0.05 with
        | _ -> go off
        | exception Unix.Unix_error _ -> go off)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ ->
        w.alive <- false;
        false
  in
  go 0

(* -- worker side -------------------------------------------------------- *)

(* The worker process: Hello, one Job, stream cases, durable results,
   Done, exit. EOF on the control channel, seen at a case boundary, means
   the supervisor is gone: exit. A worker hung inside a case never gets
   there; the parent-death signal set in [spawn] ends it instead. *)
let worker_main () =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ());
  let fd = Unix.stdin in
  let dec = Wire.decoder () in
  let inbox = Queue.create () in
  let buf = Bytes.create 65536 in
  let send_frame msg =
    let s = Wire.encode (to_server_string msg) in
    let n = String.length s in
    let rec go off =
      if off < n then
        match
          Rb_util.Retry.on_eintr (fun () ->
              Unix.write_substring fd s off (n - off))
        with
        | k -> go (off + k)
        | exception Unix.Unix_error _ -> Unix._exit 0
    in
    go 0
  in
  (* pull whatever the supervisor sent; [block] waits for at least one
     readable byte, the poll flavor runs at case boundaries *)
  let pump ~block =
    let readable =
      block
      ||
      match Unix.select [ fd ] [] [] 0.0 with
      | [], _, _ -> false
      | _ -> true
      | exception Unix.Unix_error _ -> false
    in
    if readable then
      match
        Rb_util.Retry.on_eintr (fun () -> Unix.read fd buf 0 (Bytes.length buf))
      with
      | 0 -> Unix._exit 0 (* supervisor gone: no orphans *)
      | n -> (
        match Wire.feed dec buf 0 n with
        | Error _ -> Unix._exit 0
        | Ok frames ->
          List.iter
            (fun p ->
              match to_worker_of_string p with
              | Ok m -> Queue.add m inbox
              | Error _ -> ())
            frames)
      | exception Unix.Unix_error _ -> Unix._exit 0
  in
  let rec next_msg () =
    match Queue.take_opt inbox with
    | Some m -> m
    | None ->
      pump ~block:true;
      next_msg ()
  in
  send_frame (Hello { pid = Unix.getpid () });
  let rec await_job () =
    match next_msg () with Cancel -> await_job () | Job spec -> spec
  in
  let spec = await_job () in
  let cancelled = ref false in
  let last_heartbeat = ref 0.0 in
  let boundary (case : Dataset.Case.t) =
    pump ~block:false;
    Queue.iter (function Cancel -> cancelled := true | Job _ -> ()) inbox;
    Queue.clear inbox;
    let now = Unix.gettimeofday () in
    if now -. !last_heartbeat > 0.25 then begin
      last_heartbeat := now;
      send_frame Heartbeat
    end;
    (match List.assoc_opt case.Dataset.Case.name spec.poison with
    | Some m -> Jobrun.apply_poison m
    | None -> ());
    if !cancelled then raise (Exec.Runner.Aborted "watchdog abort")
  in
  let observe ~seq ~case ~seed ~report_json =
    send_frame (Case_done { seq; case; seed; report_json })
  in
  let result =
    try
      Jobrun.execute ~backend:spec.backend ~case_names:spec.cases
        ~opts:
          { spec.opts with
            Exec.Campaign_opts.kb_dir = spec.kb_dir;
            kb_readonly = spec.kb_readonly }
        ~label:(Printf.sprintf "serve/job-%06d" spec.id)
        ~journal_dir:spec.journal_dir ~domains:spec.domains ~before:boundary
        ~cancel:(fun () -> !cancelled)
        ~observe ()
    with Out_of_memory -> Error "out of memory"
  in
  (* durable results before Done: the supervisor marks the job complete
     on the frame *)
  (match result with
  | Ok o ->
    Store.write_results spec.results_path o.Jobrun.reports;
    let passed =
      List.length
        (List.filter
           (fun (r : Rustbrain.Report.t) -> r.Rustbrain.Report.passed)
           o.Jobrun.reports)
    in
    send_frame
      (Job_done
         { cases = List.length o.Jobrun.reports; passed;
           failed = o.Jobrun.job_failed; replayed = o.Jobrun.replayed })
  | Error msg ->
    (* even a crashed job leaves durable (empty) results so RESULTS is
       well-defined *)
    Store.write_results spec.results_path [];
    send_frame
      (Job_done { cases = 0; passed = 0; failed = Some msg; replayed = 0 }));
  Unix._exit 0
