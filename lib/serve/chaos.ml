(* Every fault here is something a real client (or a real network) does to
   a real server: writes split at arbitrary byte boundaries, connections
   dying mid-frame, headers that lie, readers that stop reading, churn.
   The harness drives them against a live server socket in a seeded,
   reproducible order, and after every fault proves the event loop is
   still answering with a clean probe round-trip — the property under
   test is not "the fault is handled" but "the blast radius is one
   connection". *)

type fault =
  | Split_write
  | Mid_frame_disconnect
  | Garbage_frame
  | Slowloris
  | Churn

let fault_label = function
  | Split_write -> "split-write"
  | Mid_frame_disconnect -> "mid-frame-disconnect"
  | Garbage_frame -> "garbage-frame"
  | Slowloris -> "slowloris"
  | Churn -> "churn"

let all_faults =
  [ Split_write; Mid_frame_disconnect; Garbage_frame; Slowloris; Churn ]

type step_result = {
  step : int;
  fault : fault;
  detail : string;
  probe_ok : bool;  (* did a fresh connection get a clean STATUS reply? *)
}

type outcome = {
  steps : step_result list;
  survived : bool;  (* every probe answered: the loop outlived every fault *)
}

let plan ~seed ~steps =
  let rng = Rb_util.Rng.create seed in
  List.init steps (fun _ -> Rb_util.Rng.pick rng all_faults)

(* -- raw socket helpers (the point is byte-level control, so no Client) -- *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect_raw socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Rb_util.Retry.on_eintr (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX socket))
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    close_quiet fd;
    Error (Unix.error_message e)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match
        Rb_util.Retry.on_eintr (fun () ->
            Unix.write_substring fd s off (n - off))
      with
      | w -> go (off + w)
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let status_frame = Wire.encode (Wire.request_to_string (Wire.Status None))

(* A full valid frame written in seeded dribbles: the decoder must yield
   the same frames for any split of the byte stream, and the reply must
   still arrive. *)
let do_split_write rng socket =
  match connect_raw socket with
  | Error e -> Printf.sprintf "connect failed: %s" e
  | Ok fd ->
    let n = String.length status_frame in
    let cuts = ref 0 in
    let off = ref 0 in
    while !off < n do
      let step = 1 + Rb_util.Rng.int rng 3 in
      let len = min step (n - !off) in
      write_all fd (String.sub status_frame !off len);
      incr cuts;
      off := !off + len
    done;
    (* wait for any reply bytes so the server demonstrably decoded it *)
    let buf = Bytes.create 256 in
    let got =
      match
        Rb_util.Retry.on_eintr (fun () ->
            Unix.read fd buf 0 (Bytes.length buf))
      with
      | k -> k
      | exception Unix.Unix_error _ -> 0
    in
    close_quiet fd;
    Printf.sprintf "%d writes, %d reply bytes" !cuts got

(* Declared length bigger than the bytes that follow, then close: the
   server holds a partial frame forever on a dead connection and must
   just reap it. *)
let do_mid_frame_disconnect rng socket =
  match connect_raw socket with
  | Error e -> Printf.sprintf "connect failed: %s" e
  | Ok fd ->
    let keep = 4 + Rb_util.Rng.int rng (max 1 (String.length status_frame - 4))
    in
    write_all fd (String.sub status_frame 0 keep);
    close_quiet fd;
    Printf.sprintf "sent %d of %d bytes" keep (String.length status_frame)

(* A header the framing layer must refuse: zero length, a length past the
   frame bound, or plain junk. The connection is forfeit; the server is
   not. *)
let do_garbage_frame rng socket =
  match connect_raw socket with
  | Error e -> Printf.sprintf "connect failed: %s" e
  | Ok fd ->
    let variant = Rb_util.Rng.int rng 3 in
    let payload =
      match variant with
      | 0 ->
        let b = Bytes.make 8 '\000' in
        Bytes.set_int32_be b 0 0l;  (* declared length 0 *)
        Bytes.unsafe_to_string b
      | 1 ->
        let b = Bytes.make 8 'x' in
        Bytes.set_int32_be b 0 (Int32.of_int (1 lsl 30));  (* over bound *)
        Bytes.unsafe_to_string b
      | _ -> String.init 16 (fun _ -> Char.chr (Rb_util.Rng.int rng 256))
    in
    write_all fd payload;
    (* the server answers with an error frame and/or drops us; either way
       the read returning (bytes or EOF) means it processed the garbage *)
    let buf = Bytes.create 256 in
    (match
       Rb_util.Retry.on_eintr (fun () -> Unix.read fd buf 0 (Bytes.length buf))
     with
    | _ -> ()
    | exception Unix.Unix_error _ -> ());
    close_quiet fd;
    Printf.sprintf "variant %d" variant

(* Ask for output, then refuse to read it for a moment: the reply must sit
   in the server's bounded outbound buffer, not block its loop. *)
let do_slowloris rng socket =
  match connect_raw socket with
  | Error e -> Printf.sprintf "connect failed: %s" e
  | Ok fd ->
    let asks = 1 + Rb_util.Rng.int rng 4 in
    for _ = 1 to asks do
      write_all fd status_frame
    done;
    Unix.sleepf 0.05;
    close_quiet fd;
    Printf.sprintf "%d unread replies" asks

(* Connections that come and go without a useful byte. *)
let do_churn rng socket =
  let n = 2 + Rb_util.Rng.int rng 4 in
  let opened = ref 0 in
  for _ = 1 to n do
    match connect_raw socket with
    | Ok fd ->
      incr opened;
      close_quiet fd
    | Error _ -> ()
  done;
  Printf.sprintf "%d/%d connections" !opened n

let apply rng socket = function
  | Split_write -> do_split_write rng socket
  | Mid_frame_disconnect -> do_mid_frame_disconnect rng socket
  | Garbage_frame -> do_garbage_frame rng socket
  | Slowloris -> do_slowloris rng socket
  | Churn -> do_churn rng socket

(* A fresh, well-behaved connection getting a clean STATUS reply is the
   survival predicate: whatever the fault broke, it was not the loop. *)
let probe ?(timeout_s = 10.0) socket =
  match Client.connect ~retries:20 ~retry_delay_s:0.05 socket with
  | Error _ -> false
  | Ok c ->
    let ok =
      match Client.request ~timeout_s c (Wire.Status None) with
      | Ok (Wire.Server _) -> true
      | Ok _ | Error _ -> false
    in
    Client.close c;
    ok

(* -- worker-fault matrix ------------------------------------------------- *)

(* Faults only process isolation can reclaim: a worker that SIGSTOPs
   itself is unsignallable except by SIGKILL, a SIGKILLed worker flushes
   nothing, an OOM worker dies to a resource limit. The property under test is the supervision ladder end to end:
   the hung worker is forcibly killed within stall-timeout + grace, the
   slot respawns, every retry is crash-accounted, and the job lands in
   quarantine after exactly max_crashes attempts — with the server
   answering probes throughout and no process leaked. *)

type worker_fault = Wf_stop | Wf_kill | Wf_oom

let worker_fault_label = function
  | Wf_stop -> "sigstop"
  | Wf_kill -> "sigkill"
  | Wf_oom -> "oom"

let all_worker_faults = [ Wf_stop; Wf_kill; Wf_oom ]

type worker_step = {
  w_fault : worker_fault;
  w_case : string;     (* the case the server's poison plan booby-traps *)
  w_job : int;         (* submitted job id; -1 if the step never started *)
  w_crashes : int;     (* crash count the quarantine verdict reported *)
  w_reason : string;   (* quarantine reason (names the death signal) *)
  w_reclaimed : bool;  (* no slot still references the job afterwards *)
  w_wall_s : float;    (* submit -> quarantine wall time *)
  w_probe_ok : bool;
}

type worker_outcome = {
  w_steps : worker_step list;
  w_pids : int list;   (* every distinct worker pid HEALTH reported *)
  w_survived : bool;
}

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

let health c =
  match Client.request ~timeout_s:5.0 c Wire.Health with
  | Ok (Wire.Health { worker_pids; slots; _ }) -> Some (worker_pids, slots)
  | Ok _ | Error _ -> None

let run_worker_step ~timeout_s ~socket ~backend ~opts pids (w_fault, w_case) =
  let t0 = Unix.gettimeofday () in
  let note_pids wp = List.iter (fun p -> Hashtbl.replace pids p ()) wp in
  let finish ~w_job ~w_crashes ~w_reason ~w_reclaimed =
    { w_fault; w_case; w_job; w_crashes; w_reason; w_reclaimed;
      w_wall_s = Unix.gettimeofday () -. t0; w_probe_ok = probe socket }
  in
  let fail reason =
    finish ~w_job:(-1) ~w_crashes:0 ~w_reason:reason ~w_reclaimed:false
  in
  match Client.connect ~retries:20 ~retry_delay_s:0.05 socket with
  | Error e -> fail ("connect failed: " ^ e)
  | Ok sub -> (
    let submitted =
      Client.request ~timeout_s:5.0 sub
        (Wire.Submit
           { tenant = "chaos-worker"; backend; cases = Some [ w_case ]; opts })
    in
    (* drop the subscription immediately: quarantine progress is watched
       by STATUS polling on a fresh connection, which also proves the
       verdict is durable server state rather than a pushed frame *)
    Client.close sub;
    match submitted with
    | Ok (Wire.Accepted { id; _ }) -> (
      match Client.connect ~retries:20 ~retry_delay_s:0.05 socket with
      | Error e -> fail ("poll connect failed: " ^ e)
      | Ok c ->
        let deadline = t0 +. timeout_s in
        let job_gone () =
          (* reclaim predicate: no slot state still names this job *)
          match health c with
          | Some (wp, slots) ->
            note_pids wp;
            not
              (List.exists
                 (fun (_, s) ->
                   has_substring s (Printf.sprintf "job %d" id))
                 slots)
          | None -> false
        in
        let rec wait () =
          if Unix.gettimeofday () > deadline then
            fail
              (Printf.sprintf "job %d not quarantined within %.0fs" id
                 timeout_s)
          else
            match Client.request ~timeout_s:5.0 c (Wire.Status (Some id)) with
            | Ok (Wire.Job { state = Wire.Quarantined { crashes; reason; _ }; _ })
              ->
              let rec reclaim tries =
                if job_gone () then true
                else if tries = 0 then false
                else (Unix.sleepf 0.05; reclaim (tries - 1))
              in
              finish ~w_job:id ~w_crashes:crashes ~w_reason:reason
                ~w_reclaimed:(reclaim 100)
            | Ok _ ->
              ignore (job_gone ());
              Unix.sleepf 0.05;
              wait ()
            | Error e -> fail ("status poll failed: " ^ e)
        in
        let r = wait () in
        Client.close c;
        r)
    | Ok _ -> fail "submit not accepted"
    | Error e -> fail ("submit failed: " ^ e))

let run_worker_matrix ?(timeout_s = 60.0) ~socket ~backend ?opts ~plan () =
  let pids = Hashtbl.create 16 in
  let steps =
    List.map (run_worker_step ~timeout_s ~socket ~backend ~opts pids) plan
  in
  { w_steps = steps;
    w_pids =
      List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) pids []);
    w_survived =
      List.for_all
        (fun s -> s.w_probe_ok && s.w_reclaimed && s.w_job >= 0)
        steps }

let run ?(probe_timeout_s = 10.0) ~socket ~seed ~steps () =
  let rng = Rb_util.Rng.create seed in
  let faults = plan ~seed ~steps in
  let results =
    List.mapi
      (fun i fault ->
        let detail = apply rng socket fault in
        { step = i; fault; detail;
          probe_ok = probe ~timeout_s:probe_timeout_s socket })
      faults
  in
  { steps = results; survived = List.for_all (fun r -> r.probe_ok) results }
