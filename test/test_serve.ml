(* The serving layer's pure parts: wire framing and message codecs, the
   weighted fair queue's admission control and dispatch order, the durable
   accepted-jobs store's crash-visible transitions, the campaign-options
   wire subset, and the versioned report codec the wire splices through. *)

module Wire = Serve.Wire
module Fairq = Serve.Fairq
module Store = Serve.Store
module Opts = Exec.Campaign_opts

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* Store state directories nest (queue/ results/ jobs/), so cleanup is
   recursive, unlike test_journal's flat [with_dir]. *)
let with_dir f =
  let dir = Filename.temp_file "rustbrain-test-serve" "" in
  Sys.remove dir;
  Rb_util.Fsfile.mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let mk_report ?(name = "case-a") ?(passed = true) () =
  { Rustbrain.Report.case_name = name;
    category = Miri.Diag.Validity;
    passed;
    semantic = false;
    seconds = 12.5;
    llm_calls = 3;
    tokens = 1234;
    iterations = 2;
    solutions_tried = 1;
    rollbacks = 0;
    n_sequence = [ 3; 1; 0 ];
    winning_solution = Some "s1";
    feedback_hit = false;
    retries = 1;
    faults = 2;
    breaker_trips = 0;
    degraded = false;
    gave_up = false;
    trace = [ "line one"; "line \"two\"\twith\\escapes" ] }

(* -- framing ------------------------------------------------------------ *)

let feed_string d s =
  Wire.feed d (Bytes.of_string s) 0 (String.length s)

let check_frames msg expected = function
  | Ok frames -> Alcotest.(check (list string)) msg expected frames
  | Error e -> Alcotest.failf "%s: unexpected violation: %s" msg e

let test_framing_roundtrip () =
  let payloads = [ "hello"; "{}"; String.make 4096 'x'; "{\"type\":\"shutdown\"}" ] in
  let stream = String.concat "" (List.map Wire.encode payloads) in
  let d = Wire.decoder () in
  check_frames "one chunk" payloads (feed_string d stream);
  Alcotest.(check int) "nothing buffered" 0 (Wire.buffered d)

let test_framing_byte_at_a_time () =
  let payloads = [ "a"; "bb"; "ccc" ] in
  let stream = String.concat "" (List.map Wire.encode payloads) in
  let d = Wire.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      match feed_string d (String.make 1 c) with
      | Ok fs -> got := !got @ fs
      | Error e -> Alcotest.failf "byte feed: %s" e)
    stream;
  Alcotest.(check (list string)) "same frames any split" payloads !got;
  Alcotest.(check int) "drained" 0 (Wire.buffered d)

let test_framing_torn () =
  let frame = Wire.encode "torn-frame-payload" in
  let d = Wire.decoder () in
  (* header only *)
  check_frames "header only" [] (feed_string d (String.sub frame 0 3));
  Alcotest.(check int) "3 buffered" 3 (Wire.buffered d);
  (* header + part of payload *)
  check_frames "mid payload" []
    (feed_string d (String.sub frame 3 7));
  Alcotest.(check int) "10 buffered" 10 (Wire.buffered d);
  check_frames "completion" [ "torn-frame-payload" ]
    (feed_string d (String.sub frame 10 (String.length frame - 10)))

let test_framing_oversized () =
  let d = Wire.decoder ~max_frame:16 () in
  (match feed_string d (Wire.encode (String.make 17 'y')) with
  | Error e ->
    Alcotest.(check bool) "names the limit" true
      (String.length e > 0 && String.exists (fun c -> c = '1') e)
  | Ok _ -> Alcotest.fail "oversized frame accepted");
  (* poisoned: even a well-formed frame now errors *)
  match feed_string d (Wire.encode "ok") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder not poisoned after violation"

let test_framing_nonpositive () =
  let bad = Bytes.make 4 '\000' in
  let d = Wire.decoder () in
  (match Wire.feed d bad 0 4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero-length frame accepted");
  let d2 = Wire.decoder () in
  Bytes.set_int32_be bad 0 (-5l);
  match Wire.feed d2 bad 0 4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative-length frame accepted"

let test_framing_frames_before_violation () =
  let good = Wire.encode "good" in
  let bad = Bytes.make 4 '\000' in
  let chunk = good ^ Bytes.to_string bad in
  let d = Wire.decoder () in
  (* frames completed before the bad header are delivered exactly once... *)
  check_frames "pre-violation frame" [ "good" ] (feed_string d chunk);
  (* ...and the poisoning surfaces on the next feed *)
  match feed_string d (Wire.encode "after") with
  | Error _ -> ()
  | Ok fs ->
    Alcotest.failf "poisoned decoder yielded %d frames" (List.length fs)

(* -- message codecs ----------------------------------------------------- *)

let wire_opts =
  { Opts.default with
    seeds = [ 3; 4 ];
    domains = Some 2;
    fault_rate = 0.25;
    retries = 5;
    deadline_ms = 1000 }

let test_request_roundtrip () =
  let requests =
    [ Wire.Submit
        { tenant = "acme"; backend = "rustbrain";
          cases = Some [ "c1"; "c2" ]; opts = Some wire_opts };
      Wire.Submit
        { tenant = "default"; backend = "llm-only"; cases = None; opts = None };
      Wire.Status None;
      Wire.Status (Some 7);
      Wire.Cancel 3;
      Wire.Results 9;
      Wire.Shutdown ]
  in
  List.iter
    (fun r ->
      match Wire.parse_request (Wire.request_to_string r) with
      | Ok r' ->
        Alcotest.(check bool)
          (Printf.sprintf "request round-trips: %s" (Wire.request_to_string r))
          true (r = r')
      | Error e -> Alcotest.failf "request rejected: %s" e)
    requests

let test_response_roundtrip () =
  (* a report member built through the canonical Json renderer round-trips
     byte-exactly; real CASE frames splice Report.to_json, tested below *)
  let report_json =
    Rb_util.Json.(to_string (Obj [ ("v", Num 1.0); ("case", Str "x") ]))
  in
  let responses =
    [ Wire.Accepted { id = 4; queued = 2 };
      Wire.Busy { reason = "queue-full (128/128 jobs queued)"; retry_after_ms = 250 };
      Wire.Rejected { reason = "unknown case" };
      Wire.Job { id = 1; state = Wire.Queued { position = 3 } };
      Wire.Job { id = 1; state = Wire.Running { done_cases = 2; total_cases = 9 } };
      Wire.Job
        { id = 1; state = Wire.Finished { cases = 9; passed = 8; failed = None } };
      Wire.Job
        { id = 2;
          state = Wire.Finished { cases = 1; passed = 0; failed = Some "boom" } };
      Wire.Job { id = 5; state = Wire.Cancelled };
      Wire.Job
        { id = 6;
          state =
            Wire.Quarantined
              { crashes = 3; reason = "crashed its runner 3 times";
                last_case = Some "case-b" } };
      Wire.Server
        { queued = 3; running = 2; completed = 7; cancelled = 1;
          quarantined = 1; tenants = [ ("acme", 2); ("beta", 1) ] };
      Wire.Case { id = 0; seq = 2; case = "c\"x"; seed = 42; report_json };
      Wire.Done { id = 0; cases = 4; passed = 4; failed = None };
      Wire.Quarantined_result
        { id = 6; crashes = 3; reason = "poison"; last_case = None };
      Wire.Shutting_down { active = 1; queued = 0 };
      Wire.Draining { active = 1; queued = 2 };
      Wire.Health
        { queued = 2; running = 1; quarantined = 1; draining = false;
          slots = [ (0, "running job 4 (pid 123)"); (1, "idle") ];
          worker_pids = [ 123; 456 ]; respawns = 2; kills_term = 1;
          kills_kill = 1 };
      Wire.Health
        { queued = 0; running = 0; quarantined = 0; draining = true;
          slots = [ (0, "down"); (1, "down") ]; worker_pids = [];
          respawns = 0; kills_term = 0; kills_kill = 0 };
      Wire.Error_msg "bad frame length 0" ]
  in
  List.iter
    (fun r ->
      match Wire.parse_response (Wire.response_to_string r) with
      | Ok r' ->
        Alcotest.(check bool)
          (Printf.sprintf "response round-trips: %s" (Wire.response_to_string r))
          true (r = r')
      | Error e -> Alcotest.failf "response rejected: %s" e)
    responses;
  (* decoders ignore members they do not know, so serve-ctl still reads a
     HEALTH reply carrying the members older servers sent *)
  match
    Wire.parse_response
      {|{"type":"health","queued":1,"running":0,"quarantined":0,"draining":false,"slots":[{"slot":0,"state":"idle"}],"pool":"in-process","worker_pids":[],"respawns":0,"kills_term":0,"kills_kill":0,"zombies":1}|}
  with
  | Ok (Wire.Health { queued = 1; slots = [ (0, "idle") ]; _ }) -> ()
  | _ -> Alcotest.fail "HEALTH reply with unknown members rejected"

let test_case_frame_verbatim () =
  (* the CASE frame's report member is the exact Report.to_json bytes —
     the same bytes the durable results file stores *)
  let report_json = Rustbrain.Report.to_json (mk_report ()) in
  let rendered =
    Wire.response_to_string
      (Wire.Case { id = 1; seq = 0; case = "case-a"; seed = 7; report_json })
  in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "splices report verbatim" true
    (contains ~needle:(Printf.sprintf "\"report\":%s" report_json) rendered);
  match Wire.parse_response rendered with
  | Ok (Wire.Case { report_json = rj; _ }) -> (
    (* parse side re-renders through Json.t; the report must survive *)
    match Rustbrain.Report.of_json rj with
    | Ok r -> Alcotest.(check string) "report intact" report_json
                (Rustbrain.Report.to_json r)
    | Error e -> Alcotest.failf "re-rendered report unreadable: %s" e)
  | Ok _ -> Alcotest.fail "case frame parsed as something else"
  | Error e -> Alcotest.failf "case frame rejected: %s" e

let test_malformed_requests () =
  let bad =
    [ "not json at all";
      "{}";                                      (* no type *)
      {|{"type":"warp"}|};                       (* unknown type *)
      {|{"type":"cancel"}|};                     (* cancel needs an id *)
      {|{"type":"submit","cases":"c1"}|};        (* cases must be a list *)
      {|{"type":"submit","opts":{"seeds":"1"}}|} (* mistyped opts *) ]
  in
  List.iter
    (fun s ->
      match Wire.parse_request s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed request: %s" s)
    bad

(* -- campaign options wire subset --------------------------------------- *)

let test_opts_wire_roundtrip () =
  (* local plumbing must not travel: journal/trace/out stay behind *)
  let local =
    { wire_opts with
      journal = Some "j"; resume = true; trace = Some "t.jsonl";
      metrics = true; out = Some "o.jsonl" }
  in
  match Opts.of_wire_json (Opts.to_wire_json local) with
  | Error e -> Alcotest.failf "wire round-trip rejected: %s" e
  | Ok got ->
    Alcotest.(check bool) "wire fields survive, local fields dropped" true
      (got = wire_opts)

let test_opts_wire_defaults_and_rejects () =
  (match Opts.of_wire_json (Rb_util.Json.Obj []) with
  | Ok o -> Alcotest.(check bool) "empty object = defaults" true (o = Opts.default)
  | Error e -> Alcotest.failf "empty opts rejected: %s" e);
  let reject label json =
    match Opts.of_wire_json json with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" label
  in
  Rb_util.Json.(
    reject "mistyped seeds" (Obj [ ("seeds", Str "1") ]);
    reject "empty seeds" (Obj [ ("seeds", List []) ]);
    reject "out-of-range fault rate" (Obj [ ("fault_rate", Num 1.5) ]);
    reject "negative retries" (Obj [ ("retries", Num (-1.0)) ]);
    reject "zero domains" (Obj [ ("domains", Num 0.0) ]))

let test_opts_validate () =
  let bad l o =
    match Opts.validate o with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "validate accepted %s" l
  in
  bad "empty seeds" { Opts.default with seeds = [] };
  bad "fault rate 2.0" { Opts.default with fault_rate = 2.0 };
  bad "negative deadline" { Opts.default with deadline_ms = -1 };
  bad "zero domains" { Opts.default with domains = Some 0 };
  match Opts.validate wire_opts with
  | Ok o -> Alcotest.(check bool) "valid opts pass unchanged" true (o = wire_opts)
  | Error e -> Alcotest.failf "valid opts rejected: %s" e

let test_opts_journal_mode () =
  (match Opts.journal_mode Opts.default with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "default opts should run unjournaled"
  | Error e -> Alcotest.failf "default journal mode rejected: %s" e);
  let bad l o =
    match Opts.journal_mode o with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "journal_mode accepted %s" l
  in
  bad "resume without journal" { Opts.default with resume = true };
  bad "fresh without journal" { Opts.default with fresh = true };
  bad "resume+fresh"
    { Opts.default with journal = Some "j"; resume = true; fresh = true }

let test_opts_runner () =
  (match Opts.runner Opts.default ~backend:"no-such-backend" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend resolved");
  (match
     Opts.runner { Opts.default with fault_rate = 0.5 } ~backend:"llm-only"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resilience flags accepted on a baseline backend");
  match Opts.runner Opts.default ~backend:"rustbrain" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rustbrain backend rejected: %s" e

(* -- fair queue --------------------------------------------------------- *)

let drain q n =
  List.init n (fun _ ->
      match Fairq.next q with
      | Some (tenant, _) -> tenant
      | None -> Alcotest.fail "queue drained early")

let test_fairq_fifo () =
  let q = Fairq.create () in
  List.iter
    (fun p -> ignore (Result.get_ok (Fairq.admit q ~tenant:"t" ~cost:1 p)))
    [ 1; 2; 3; 4 ];
  let got = List.init 4 (fun _ -> snd (Option.get (Fairq.next q))) in
  Alcotest.(check (list int)) "FIFO within a tenant" [ 1; 2; 3; 4 ] got;
  Alcotest.(check bool) "then idle" true (Fairq.next q = None)

let test_fairq_weighted_share () =
  let q = Fairq.create ~weights:[ ("a", 2) ] () in
  List.iter
    (fun t ->
      for i = 0 to 11 do
        ignore (Result.get_ok (Fairq.admit q ~tenant:t ~cost:1 i))
      done)
    [ "a"; "b" ];
  let first = drain q 12 in
  let count t = List.length (List.filter (String.equal t) first) in
  (* stride scheduling: weight-2 tenant gets exactly 2/3 of dispatches
     under saturation *)
  Alcotest.(check int) "weight-2 tenant share" 8 (count "a");
  Alcotest.(check int) "weight-1 tenant share" 4 (count "b")

let test_fairq_cost_aware () =
  let q = Fairq.create () in
  for i = 0 to 1 do
    ignore (Result.get_ok (Fairq.admit q ~tenant:"big" ~cost:10 i))
  done;
  for i = 0 to 11 do
    ignore (Result.get_ok (Fairq.admit q ~tenant:"small" ~cost:1 i))
  done;
  let order = drain q 12 in
  Alcotest.(check string) "tie at vtime 0 breaks on name" "big" (List.hd order);
  (* the 10-case job charges 10 virtual time units, so the 1-case tenant
     gets ten dispatches before big's second job *)
  Alcotest.(check (list string)) "small runs while big pays its cost"
    (List.init 10 (fun _ -> "small"))
    (List.filteri (fun i _ -> i >= 1 && i <= 10) order)

let test_fairq_bounded () =
  let q = Fairq.create ~max_queue:3 () in
  for i = 0 to 2 do
    ignore (Result.get_ok (Fairq.admit q ~tenant:"t" ~cost:1 i))
  done;
  (match Fairq.admit q ~tenant:"other" ~cost:1 99 with
  | Error (Fairq.Queue_full { depth = 3; limit = 3 }) -> ()
  | Error r -> Alcotest.failf "wrong reject: %s" (Fairq.reject_reason r)
  | Ok _ -> Alcotest.fail "admitted past the bound");
  Alcotest.(check int) "depth unchanged" 3 (Fairq.depth q)

let test_fairq_quota () =
  let q = Fairq.create ~quota:2 () in
  for i = 0 to 1 do
    ignore (Result.get_ok (Fairq.admit q ~tenant:"greedy" ~cost:1 i))
  done;
  (match Fairq.admit q ~tenant:"greedy" ~cost:1 2 with
  | Error (Fairq.Quota_exceeded { tenant = "greedy"; queued = 2; quota = 2 }) -> ()
  | Error r -> Alcotest.failf "wrong reject: %s" (Fairq.reject_reason r)
  | Ok _ -> Alcotest.fail "quota not enforced");
  (* the queue still has room for everyone else *)
  match Fairq.admit q ~tenant:"patient" ~cost:1 0 with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "other tenant rejected: %s" (Fairq.reject_reason r)

let test_fairq_force () =
  let q = Fairq.create ~max_queue:1 ~quota:1 () in
  ignore (Result.get_ok (Fairq.admit q ~tenant:"t" ~cost:1 0));
  (* restart re-enqueue: durably accepted jobs bypass bound and quota *)
  (match Fairq.admit ~force:true q ~tenant:"t" ~cost:1 1 with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "force rejected: %s" (Fairq.reject_reason r));
  Alcotest.(check int) "both queued" 2 (Fairq.depth q);
  Alcotest.(check (list (pair string int)))
    "tenant depths" [ ("t", 2) ] (Fairq.tenant_depths q)

let test_fairq_rejoin_no_credit () =
  let q = Fairq.create () in
  for i = 0 to 3 do
    ignore (Result.get_ok (Fairq.admit q ~tenant:"a" ~cost:1 i))
  done;
  ignore (drain q 4);
  (* "b" was asleep the whole time; it rejoins at current virtual time and
     must interleave with "a", not drain banked credit first *)
  for i = 0 to 1 do
    ignore (Result.get_ok (Fairq.admit q ~tenant:"b" ~cost:1 i));
    ignore (Result.get_ok (Fairq.admit q ~tenant:"a" ~cost:1 (10 + i)))
  done;
  Alcotest.(check (list string))
    "rejoining tenant interleaves" [ "b"; "a"; "b"; "a" ] (drain q 4)

let test_fairq_deterministic () =
  let run () =
    let q = Fairq.create ~weights:[ ("w", 3) ] () in
    List.iteri
      (fun i (t, c) -> ignore (Result.get_ok (Fairq.admit q ~tenant:t ~cost:c i)))
      [ ("w", 2); ("x", 1); ("y", 5); ("w", 1); ("x", 3); ("y", 1); ("w", 4) ];
    drain q 7
  in
  Alcotest.(check (list string)) "equal admissions, equal dispatches"
    (run ()) (run ())

(* -- durable store ------------------------------------------------------ *)

let test_store_admit_durable () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      let s0 =
        Store.admit store ~tenant:"acme" ~backend:"rustbrain"
          ~cases:[ "c1"; "c2" ] ~opts:wire_opts
      in
      let s1 =
        Store.admit store ~tenant:"beta" ~backend:"llm-only" ~cases:[ "c3" ]
          ~opts:Opts.default
      in
      Alcotest.(check (list int)) "sequential ids" [ 0; 1 ] [ s0.id; s1.id ];
      (* durability-at-ACCEPTED: a second open of the same directory — the
         restart path — sees both submissions, in admission order *)
      let reopened = Store.open_dir ~dir () in
      let pending = Store.pending reopened in
      Alcotest.(check (list int)) "restart scan finds accepted jobs" [ 0; 1 ]
        (List.map (fun (s : Store.submission) -> s.id) pending);
      let p0 = List.hd pending in
      Alcotest.(check string) "tenant survives" "acme" p0.tenant;
      Alcotest.(check string) "backend survives" "rustbrain" p0.backend;
      Alcotest.(check (list string)) "cases survive" [ "c1"; "c2" ] p0.cases;
      Alcotest.(check bool) "wire opts survive" true (p0.opts = wire_opts);
      Alcotest.(check int) "numbering continues after restart" 2
        (Store.admit reopened ~tenant:"t" ~backend:"b" ~cases:[]
           ~opts:Opts.default)
          .id)

let test_store_cancel () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      let s =
        Store.admit store ~tenant:"t" ~backend:"b" ~cases:[ "c" ]
          ~opts:Opts.default
      in
      Alcotest.(check bool) "cancel queued" true (Store.cancel store s.id);
      Alcotest.(check bool) "cancel is terminal" false (Store.cancel store s.id);
      Alcotest.(check bool) "unknown id" false (Store.cancel store 99);
      Alcotest.(check (list int)) "not pending" []
        (List.map (fun (s : Store.submission) -> s.id) (Store.pending store));
      (* and durably so *)
      let reopened = Store.open_dir ~dir () in
      (match Store.status reopened s.id with
      | Some Store.Cancelled -> ()
      | _ -> Alcotest.fail "cancellation lost across reopen");
      Alcotest.(check (pair (pair int int) (pair int int)))
        "counts" ((0, 0), (1, 0))
        (let q, d, c, z = Store.counts reopened in
         ((q, d), (c, z))))

(* A durable write that fails raises out of the store and changes nothing
   it would have changed: no temporary file left behind, the job never
   pending, the id still free, and a failed cancel leaves the job queued.
   A directory squatting on the record's path makes the rename fail. *)
let test_store_failed_write () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      let queue = Filename.concat dir "queue" in
      let block name = Unix.mkdir (Filename.concat queue name) 0o755 in
      let unblock name = Unix.rmdir (Filename.concat queue name) in
      let tmp_files () =
        List.filter
          (fun n -> Helpers.contains n ".tmp.")
          (Array.to_list (Sys.readdir queue))
      in
      let admit () =
        Store.admit store ~tenant:"t" ~backend:"b" ~cases:[ "c" ]
          ~opts:Opts.default
      in
      block "job-000000.json";
      (match admit () with
      | _ -> Alcotest.fail "admit acknowledged a record it could not write"
      | exception (Sys_error _ | Unix.Unix_error _) -> ());
      Alcotest.(check (list string)) "no tmp file left" [] (tmp_files ());
      Alcotest.(check (list int)) "not pending" []
        (List.map (fun (s : Store.submission) -> s.id) (Store.pending store));
      unblock "job-000000.json";
      Alcotest.(check int) "the id stays free" 0 (admit ()).id;
      block "cancelled-000000.json";
      (match Store.cancel store 0 with
      | _ -> Alcotest.fail "cancel acknowledged a marker it could not write"
      | exception (Sys_error _ | Unix.Unix_error _) -> ());
      Alcotest.(check (list string)) "no tmp file after cancel" [] (tmp_files ());
      Alcotest.(check bool) "still queued" true
        (Store.status store 0 = Some Store.Queued))

let test_store_results_complete () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      let s =
        Store.admit store ~tenant:"t" ~backend:"rustbrain"
          ~cases:[ "case-a"; "case-b" ] ~opts:Opts.default
      in
      let reports =
        [ mk_report (); mk_report ~name:"case-b" ~passed:false () ]
      in
      Store.write_results (Store.results_path store s.id) reports;
      let expect =
        String.concat ""
          (List.map (fun r -> Rustbrain.Report.to_json r ^ "\n") reports)
      in
      (match Store.read_results store s.id with
      | Some got -> Alcotest.(check string) "results round-trip" expect got
      | None -> Alcotest.fail "results missing");
      Store.complete store s.id { Store.cases = 2; passed = 1; failed = None };
      (match Store.status store s.id with
      | Some (Store.Done { cases = 2; passed = 1; failed = None }) -> ()
      | _ -> Alcotest.fail "completion not recorded");
      Alcotest.(check bool) "done jobs cannot be cancelled" false
        (Store.cancel store s.id);
      (* the done marker survives a restart, so the job is not re-run *)
      let reopened = Store.open_dir ~dir () in
      Alcotest.(check (list int)) "done job not pending" []
        (List.map (fun (s : Store.submission) -> s.id) (Store.pending reopened));
      match Store.status reopened s.id with
      | Some (Store.Done { cases = 2; passed = 1; failed = None }) -> ()
      | _ -> Alcotest.fail "completion lost across reopen")

let test_store_progress () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      Alcotest.(check int) "no journal yet" 0 (Store.progress store 0);
      (* progress counts the journal's record segments *)
      let jdir = Store.journal_dir store 0 in
      Rb_util.Fsfile.mkdir_p jdir;
      Rb_util.Fsfile.write_atomic (Filename.concat jdir "rec-000000.json") "{}";
      Rb_util.Fsfile.write_atomic (Filename.concat jdir "rec-000001.json") "{}";
      Rb_util.Fsfile.write_atomic (Filename.concat jdir "manifest.json") "{}";
      Alcotest.(check int) "two journaled repairs" 2 (Store.progress store 0))

(* -- crash accounting (attempts WAL) ------------------------------------ *)

let ids l = List.map (fun (s : Store.submission) -> s.id) l

let test_store_attempts_wal () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      let s =
        Store.admit store ~tenant:"t" ~backend:"b" ~cases:[ "c" ]
          ~opts:Opts.default
      in
      Alcotest.(check int) "no attempts yet" 0 (Store.crash_count store s.id);
      Store.begin_attempt store s.id;
      (* kill -9 equivalent: a cold reopen — the started-but-never-ended
         attempt reads back as a crash *)
      let reopened = Store.open_dir ~dir () in
      Alcotest.(check int) "crash visible across reopen" 1
        (Store.crash_count reopened s.id);
      Store.begin_attempt reopened s.id;
      Alcotest.(check int) "crashes accumulate" 2
        (Store.crash_count reopened s.id);
      Store.end_attempt reopened s.id;
      Alcotest.(check int) "clean end settles every started attempt" 0
        (Store.crash_count reopened s.id);
      (* completion ends the open attempt too *)
      Store.begin_attempt reopened s.id;
      Store.complete reopened s.id
        { Store.cases = 1; passed = 1; failed = None };
      Alcotest.(check int) "completion is a clean end" 0
        (Store.crash_count reopened s.id))

let test_store_quarantine () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      let s =
        Store.admit store ~tenant:"t" ~backend:"b" ~cases:[ "c1"; "c2" ]
          ~opts:Opts.default
      in
      (* a journal frontier, so the quarantine record can say how far the
         job got before it went poison *)
      let jdir = Store.journal_dir store s.id in
      Rb_util.Fsfile.mkdir_p jdir;
      Rb_util.Fsfile.write_atomic
        (Filename.concat jdir "rec-000000.json")
        "{\"case\":\"c1\"}";
      Store.begin_attempt store s.id;
      Store.begin_attempt store s.id;
      Store.begin_attempt store s.id;
      let info =
        Store.quarantine store s.id ~reason:"crashed its runner 3 times"
          ~backtrace:"bt"
      in
      Alcotest.(check int) "crash count captured" 3 info.Store.crashes;
      Alcotest.(check (option string)) "last journaled case captured"
        (Some "c1") info.Store.last_case;
      let reopened = Store.open_dir ~dir () in
      Alcotest.(check (list int)) "quarantined jobs are never resumed" []
        (ids (Store.pending reopened));
      (match Store.status reopened s.id with
      | Some (Store.Quarantined q) ->
        Alcotest.(check int) "crashes durable" 3 q.Store.crashes;
        Alcotest.(check string) "reason durable" "crashed its runner 3 times"
          q.Store.reason
      | _ -> Alcotest.fail "quarantine lost across reopen");
      (match Store.quarantined reopened with
      | [ (id, _) ] -> Alcotest.(check int) "listed exactly once" s.id id
      | l -> Alcotest.failf "%d quarantine entries" (List.length l));
      let q, d, c, z = Store.counts reopened in
      Alcotest.(check (pair (pair int int) (pair int int)))
        "counts" ((0, 0), (0, 1))
        ((q, d), (c, z)))

(* -- fsck: damage classified and contained, never fatal at startup ------- *)

let raw_read path = Option.get (Rb_util.Fsfile.read path)
let queue_file dir name = Filename.concat (Filename.concat dir "queue") name

let test_fsck_truncated_submission () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      ignore
        (Store.admit store ~tenant:"t" ~backend:"b" ~cases:[ "c" ]
           ~opts:Opts.default
          : Store.submission);
      (* cut the record mid-payload: shorter than its header declares *)
      let path = queue_file dir "job-000000.json" in
      let bytes = raw_read path in
      Rb_util.Fsfile.write_atomic path
        (String.sub bytes 0 (String.length bytes - 5));
      let report = Store.fsck ~heal:false ~dir () in
      Alcotest.(check int) "classified torn" 1 (Store.fsck_count `Torn report);
      (* the startup scrub sets it aside and boots *)
      let reopened = Store.open_dir ~dir () in
      Alcotest.(check (list int)) "torn admission not resumed" []
        (ids (Store.pending reopened));
      Alcotest.(check bool) "bytes preserved for triage" true
        (Sys.file_exists
           (Filename.concat dir "quarantined/corrupt/queue-job-000000.json")))

let test_fsck_bitflip_checksum () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      ignore
        (Store.admit store ~tenant:"t" ~backend:"b" ~cases:[ "c" ]
           ~opts:Opts.default
          : Store.submission);
      let path = queue_file dir "job-000000.json" in
      let bytes = Bytes.of_string (raw_read path) in
      let i = Bytes.length bytes - 2 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 1));
      Rb_util.Fsfile.write_atomic path (Bytes.to_string bytes);
      let report = Store.fsck ~heal:false ~dir () in
      Alcotest.(check int) "classified corrupt" 1
        (Store.fsck_count `Corrupt report);
      let reopened = Store.open_dir ~dir () in
      Alcotest.(check (list int)) "flipped record not resumed" []
        (ids (Store.pending reopened)))

(* Every writer puts a checksum header on queue records, so a headerless
   one is damage, even when its payload parses. *)
let test_fsck_headerless_record () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      ignore
        (Store.admit store ~tenant:"t" ~backend:"b" ~cases:[ "c" ]
           ~opts:Opts.default
          : Store.submission);
      let path = queue_file dir "job-000000.json" in
      let bytes = raw_read path in
      let nl = String.index bytes '\n' in
      Rb_util.Fsfile.write_atomic path
        (String.sub bytes (nl + 1) (String.length bytes - nl - 1));
      let report = Store.fsck ~heal:false ~dir () in
      Alcotest.(check int) "classified corrupt" 1
        (Store.fsck_count `Corrupt report);
      let reopened = Store.open_dir ~dir () in
      Alcotest.(check (list int)) "headerless admission not resumed" []
        (ids (Store.pending reopened));
      Alcotest.(check bool) "bytes preserved for triage" true
        (Sys.file_exists
           (Filename.concat dir "quarantined/corrupt/queue-job-000000.json")))

let test_fsck_garbage_journal () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      let s =
        Store.admit store ~tenant:"t" ~backend:"b" ~cases:[ "c1"; "c2" ]
          ~opts:Opts.default
      in
      let jdir = Store.journal_dir store s.id in
      Rb_util.Fsfile.mkdir_p jdir;
      Rb_util.Fsfile.write_atomic
        (Filename.concat jdir "rec-000000.json")
        "{\"case\":\"c1\"}";
      Rb_util.Fsfile.write_atomic
        (Filename.concat jdir "rec-000001.json")
        "}{ not json";
      let report = Store.fsck ~dir () in
      Alcotest.(check int) "garbage segment healed away" 1
        (Store.fsck_count `Healed report);
      Alcotest.(check int) "nothing corrupt" 0
        (Store.fsck_count `Corrupt report);
      let reopened = Store.open_dir ~dir () in
      Alcotest.(check (list int)) "job still resumable" [ s.id ]
        (ids (Store.pending reopened));
      Alcotest.(check int) "frontier recomputed from surviving segments" 1
        (Store.progress reopened s.id))

let test_fsck_marker_conflicts () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      let s =
        Store.admit store ~tenant:"t" ~backend:"b" ~cases:[ "c" ]
          ~opts:Opts.default
      in
      Store.complete store s.id { Store.cases = 1; passed = 1; failed = None };
      (* duplicate the done marker under an id that was never admitted,
         and fabricate a cancelled marker conflicting with the
         completion *)
      Rb_util.Fsfile.write_atomic
        (queue_file dir "done-000007.json")
        (raw_read (queue_file dir "done-000000.json"));
      Rb_util.Fsfile.write_checked (queue_file dir "cancelled-000000.json") "{}";
      let report = Store.fsck ~dir () in
      Alcotest.(check int) "orphan and conflict both healed" 2
        (Store.fsck_count `Healed report);
      let reopened = Store.open_dir ~dir () in
      (match Store.status reopened s.id with
      | Some (Store.Done _) -> ()
      | _ -> Alcotest.fail "completion must win over a cancelled marker");
      match Store.status reopened 7 with
      | None -> ()
      | Some _ -> Alcotest.fail "orphan marker must not conjure a job")

let test_fsck_results_torn_tail () =
  with_dir (fun dir ->
      let store = Store.open_dir ~dir () in
      let s =
        Store.admit store ~tenant:"t" ~backend:"b"
          ~cases:[ "case-a"; "case-b" ] ~opts:Opts.default
      in
      Store.write_results (Store.results_path store s.id)
        [ mk_report (); mk_report ~name:"case-b" () ];
      let path = Store.results_path store s.id in
      let whole = raw_read path in
      (* cut mid final line: the torn tail is dropped, the clean prefix
         survives byte-for-byte *)
      Rb_util.Fsfile.write_atomic path
        (String.sub whole 0 (String.length whole - 7));
      let report = Store.fsck ~dir () in
      Alcotest.(check int) "torn tail healed" 1
        (Store.fsck_count `Healed report);
      let first_line = String.sub whole 0 (1 + String.index whole '\n') in
      Alcotest.(check string) "clean prefix survives" first_line
        (raw_read path))

(* -- bounded outbound buffer -------------------------------------------- *)

let test_outbuf_bounded () =
  let module O = Serve.Outbuf in
  let b = O.create ~limit:10 in
  Alcotest.(check bool) "fresh is empty" true (O.is_empty b);
  Alcotest.(check bool) "add within limit" true (O.add b "hello");
  Alcotest.(check bool) "fills to the bound" true (O.add b "world");
  Alcotest.(check int) "length tracks bytes" 10 (O.length b);
  Alcotest.(check bool) "overflow refused" false (O.add b "!");
  Alcotest.(check int) "refused add leaves contents alone" 10 (O.length b);
  (match O.peek b with
  | Some (chunk, 0) -> Alcotest.(check string) "head chunk" "hello" chunk
  | _ -> Alcotest.fail "peek on non-empty");
  O.consume b 3;
  (match O.peek b with
  | Some (chunk, off) ->
    Alcotest.(check string) "partial consume keeps the chunk" "hello" chunk;
    Alcotest.(check int) "offset advances" 3 off
  | None -> Alcotest.fail "peek after partial consume");
  O.consume b 2;
  (match O.peek b with
  | Some (chunk, 0) -> Alcotest.(check string) "boundary crossed" "world" chunk
  | _ -> Alcotest.fail "chunk boundary");
  Alcotest.(check bool) "freed space admits again" true (O.add b "12345");
  O.consume b 100;
  Alcotest.(check bool) "over-consume clamps and drains" true (O.is_empty b)

(* -- EINTR retry --------------------------------------------------------- *)

let test_retry_on_eintr () =
  let tries = ref 0 in
  let v =
    Rb_util.Retry.on_eintr (fun () ->
        incr tries;
        if !tries < 3 then raise (Unix.Unix_error (Unix.EINTR, "read", ""))
        else 42)
  in
  Alcotest.(check int) "retried through EINTR" 42 v;
  Alcotest.(check int) "exactly three calls" 3 !tries;
  match
    Rb_util.Retry.on_eintr (fun () ->
        raise (Unix.Unix_error (Unix.EBADF, "read", "")))
  with
  | (_ : int) -> Alcotest.fail "EBADF must not be retried"
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()

(* -- versioned report codec (wire + journal + --out) -------------------- *)

let test_report_version_stamped () =
  let line = Rustbrain.Report.to_json (mk_report ()) in
  let prefix = Printf.sprintf "{\"v\":%d," Rustbrain.Report.codec_version in
  Alcotest.(check string) "v leads every rendered report" prefix
    (String.sub line 0 (String.length prefix));
  match Rustbrain.Report.of_json line with
  | Ok r -> Alcotest.(check string) "render-exact" line (Rustbrain.Report.to_json r)
  | Error e -> Alcotest.failf "own rendering rejected: %s" e

let test_report_version_legacy () =
  (* journals written before the field existed have no "v": accepted as v1 *)
  let line = Rustbrain.Report.to_json (mk_report ()) in
  let prefix = Printf.sprintf "{\"v\":%d," Rustbrain.Report.codec_version in
  let legacy = "{" ^ String.sub line (String.length prefix)
                       (String.length line - String.length prefix)
  in
  match Rustbrain.Report.of_json legacy with
  | Ok r ->
    Alcotest.(check string) "legacy line re-renders versioned" line
      (Rustbrain.Report.to_json r)
  | Error e -> Alcotest.failf "legacy line rejected: %s" e

let test_report_version_rejected () =
  let line = Rustbrain.Report.to_json (mk_report ()) in
  let swap needle replacement =
    let n = String.length needle in
    "{" ^ replacement ^ String.sub line (1 + n) (String.length line - 1 - n)
  in
  let v1 = Printf.sprintf "\"v\":%d" Rustbrain.Report.codec_version in
  (match Rustbrain.Report.of_json (swap v1 "\"v\":2") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future schema version accepted");
  match Rustbrain.Report.of_json (swap v1 "\"v\":\"1\"") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mistyped schema version accepted"

(* -- directory-entry durability (Fsfile) -------------------------------- *)

let test_fsfile_mkdir_p_nested () =
  with_dir (fun dir ->
      let deep = Filename.concat dir "a/b/c" in
      Rb_util.Fsfile.mkdir_p deep;
      Alcotest.(check bool) "creates the whole chain" true (Sys.is_directory deep);
      (* idempotent, including on the existing prefix *)
      Rb_util.Fsfile.mkdir_p deep;
      let f = Filename.concat deep "x.json" in
      Rb_util.Fsfile.write_atomic f "{}";
      Alcotest.(check (option string)) "file lands inside" (Some "{}")
        (Rb_util.Fsfile.read f))

(* A directory fsync that fails leaves the new entry possibly not durable,
   so only a filesystem's "cannot fsync a directory" (EINVAL) is ignored. *)
let test_fsfile_fsync_dir_errors () =
  with_dir (fun dir ->
      (match Rb_util.Fsfile.fsync_dir (Filename.concat dir "no-such-dir") with
      | () -> Alcotest.fail "fsync_dir of a missing directory returned"
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      (* procfs refuses fsync on a directory with EINVAL *)
      Rb_util.Fsfile.fsync_dir "/proc";
      Rb_util.Fsfile.fsync_dir dir)

(* -- worker-pool protocol (procpool) ------------------------------------- *)

module Procpool = Serve.Procpool
module Jobrun = Serve.Jobrun

let test_procpool_job_roundtrip () =
  let spec =
    { Procpool.id = 7;
      backend = "rustbrain";
      cases = [ "case-a"; "case \"b\"" ];
      opts = wire_opts;
      journal_dir = "/tmp/state/jobs/job-000007";
      results_path = "/tmp/state/results/job-000007.jsonl";
      domains = Some 3;
      poison =
        [ ("case-a", Jobrun.Poison_stop); ("case \"b\"", Jobrun.Poison_oom) ];
      kb_dir = Some "/tmp/state/kb/tenant-a";
      kb_readonly = true }
  in
  List.iter
    (fun msg ->
      match Procpool.to_worker_of_string (Procpool.to_worker_string msg) with
      | Ok m ->
        Alcotest.(check bool)
          (Printf.sprintf "to-worker round-trips: %s"
             (Procpool.to_worker_string msg))
          true (m = msg)
      | Error e -> Alcotest.failf "to-worker rejected: %s" e)
    [ Procpool.Job spec;
      Procpool.Job { spec with domains = None; poison = [] };
      Procpool.Job { spec with kb_dir = None; kb_readonly = false };
      Procpool.Job { spec with kb_readonly = false };
      Procpool.Cancel ]

let test_procpool_server_roundtrip () =
  let report_json =
    Rb_util.Json.(to_string (Obj [ ("v", Num 1.0); ("case", Str "x") ]))
  in
  List.iter
    (fun msg ->
      match Procpool.to_server_of_string (Procpool.to_server_string msg) with
      | Ok m ->
        Alcotest.(check bool)
          (Printf.sprintf "to-server round-trips: %s"
             (Procpool.to_server_string msg))
          true (m = msg)
      | Error e -> Alcotest.failf "to-server rejected: %s" e)
    [ Procpool.Hello { pid = 4242 };
      Procpool.Heartbeat;
      Procpool.Case_done { seq = 3; case = "c\"x"; seed = 42; report_json };
      Procpool.Job_done { cases = 4; passed = 3; failed = None; replayed = 2 };
      Procpool.Job_done
        { cases = 0; passed = 0; failed = Some "boom"; replayed = 0 } ]

let test_procpool_case_done_verbatim () =
  (* like Wire.Case: the report member must be spliced bytes, not a
     re-rendering — workers stream the exact bytes the results file
     stores *)
  let report_json = Rustbrain.Report.to_json (mk_report ()) in
  let rendered =
    Procpool.to_server_string
      (Procpool.Case_done { seq = 0; case = "case-a"; seed = 7; report_json })
  in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report spliced verbatim" true
    (contains ~needle:(Printf.sprintf "\"report\":%s" report_json) rendered)

let test_procpool_malformed () =
  List.iter
    (fun s ->
      match Procpool.to_worker_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed to-worker: %s" s)
    [ "nope"; "{}"; {|{"type":"job"}|}; {|{"type":"warp"}|} ];
  List.iter
    (fun s ->
      match Procpool.to_server_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed to-server: %s" s)
    [ "nope"; "{}"; {|{"type":"case"}|}; {|{"type":"warp"}|} ]

let test_poison_labels () =
  List.iter
    (fun m ->
      match Jobrun.poison_of_label (Jobrun.poison_label m) with
      | Some m' ->
        Alcotest.(check bool)
          (Printf.sprintf "poison label round-trips: %s" (Jobrun.poison_label m))
          true (m = m')
      | None -> Alcotest.failf "label %s unreadable" (Jobrun.poison_label m))
    [ Jobrun.Poison_exit; Jobrun.Poison_hang; Jobrun.Poison_raise;
      Jobrun.Poison_stop; Jobrun.Poison_kill; Jobrun.Poison_oom ];
  Alcotest.(check bool) "unknown label refused" true
    (Jobrun.poison_of_label "warp" = None)

let test_procpool_backoff () =
  let rng = Rb_util.Rng.create 11 in
  (* bounds: jitter is ±25%, base doubles from 0.25s and caps at 30s *)
  for failures = 1 to 12 do
    let base = Float.min 30.0 (0.25 *. Float.pow 2.0 (float_of_int (failures - 1))) in
    for _ = 1 to 50 do
      let d = Procpool.backoff_delay ~failures rng in
      Alcotest.(check bool)
        (Printf.sprintf "delay in jitter band at %d failures" failures)
        true
        (d >= (0.75 *. base) -. 1e-9 && d <= (1.25 *. base) +. 1e-9)
    done
  done;
  (* determinism: same seed, same draws *)
  let a = List.init 8 (fun i -> Procpool.backoff_delay ~failures:(i + 1)
                                  (Rb_util.Rng.create 5)) in
  let b = List.init 8 (fun i -> Procpool.backoff_delay ~failures:(i + 1)
                                  (Rb_util.Rng.create 5)) in
  Alcotest.(check (list (float 1e-12))) "seeded jitter deterministic" a b

(* OCaml 5 refuses [Unix.fork] in any process that has ever run a second
   domain; spawn must turn that refusal into an [Error], closing both
   socketpair ends, instead of letting it escape into the server loop. *)
let test_procpool_spawn_refused_fork () =
  Domain.join (Domain.spawn (fun () -> ()));
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  (match Procpool.spawn ~argv:[| "/bin/true" |] () with
  | Error _ -> ()
  | Ok w -> Alcotest.failf "spawned pid %d after a domain ran" w.Procpool.pid);
  Alcotest.(check int) "socketpair closed" before (open_fds ())

(* A client writing to a server that has gone away gets [Error], not
   SIGPIPE: at the signal's default action the first write to a socket
   whose peer has closed would end this whole process. *)
let test_client_send_to_closed_peer () =
  let previous = Sys.signal Sys.sigpipe Sys.Signal_default in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous)
    (fun () ->
      with_dir (fun dir ->
          let path = Filename.concat dir "sock" in
          let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect ~finally:(fun () -> Unix.close listener)
            (fun () ->
              Unix.bind listener (Unix.ADDR_UNIX path);
              Unix.listen listener 1;
              match Serve.Client.connect ~retries:0 path with
              | Error e -> Alcotest.failf "connect: %s" e
              | Ok c ->
                Fun.protect ~finally:(fun () -> Serve.Client.close c)
                  (fun () ->
                    let peer, _ = Unix.accept listener in
                    Unix.close peer;
                    match Serve.Client.send c Wire.Health with
                    | Error _ -> ()
                    | Ok () -> Alcotest.fail "send to a closed peer succeeded"))))

let suite =
  [ Alcotest.test_case "wire: framing round-trip" `Quick test_framing_roundtrip;
    Alcotest.test_case "wire: byte-at-a-time feed" `Quick
      test_framing_byte_at_a_time;
    Alcotest.test_case "wire: torn frames buffer" `Quick test_framing_torn;
    Alcotest.test_case "wire: oversized frame poisons" `Quick
      test_framing_oversized;
    Alcotest.test_case "wire: non-positive length rejected" `Quick
      test_framing_nonpositive;
    Alcotest.test_case "wire: frames before violation delivered once" `Quick
      test_framing_frames_before_violation;
    Alcotest.test_case "wire: request codec round-trip" `Quick
      test_request_roundtrip;
    Alcotest.test_case "wire: response codec round-trip" `Quick
      test_response_roundtrip;
    Alcotest.test_case "wire: case frame splices report verbatim" `Quick
      test_case_frame_verbatim;
    Alcotest.test_case "wire: malformed requests rejected" `Quick
      test_malformed_requests;
    Alcotest.test_case "opts: wire subset round-trip" `Quick
      test_opts_wire_roundtrip;
    Alcotest.test_case "opts: wire defaults and rejections" `Quick
      test_opts_wire_defaults_and_rejects;
    Alcotest.test_case "opts: validate ranges" `Quick test_opts_validate;
    Alcotest.test_case "opts: journal-mode policy" `Quick test_opts_journal_mode;
    Alcotest.test_case "opts: backend resolution" `Quick test_opts_runner;
    Alcotest.test_case "fairq: FIFO within tenant" `Quick test_fairq_fifo;
    Alcotest.test_case "fairq: weighted share" `Quick test_fairq_weighted_share;
    Alcotest.test_case "fairq: cost-aware virtual time" `Quick
      test_fairq_cost_aware;
    Alcotest.test_case "fairq: bounded admission" `Quick test_fairq_bounded;
    Alcotest.test_case "fairq: per-tenant quota" `Quick test_fairq_quota;
    Alcotest.test_case "fairq: force bypass for restart" `Quick test_fairq_force;
    Alcotest.test_case "fairq: rejoin banks no credit" `Quick
      test_fairq_rejoin_no_credit;
    Alcotest.test_case "fairq: deterministic dispatch" `Quick
      test_fairq_deterministic;
    Alcotest.test_case "store: admission durable at ACCEPTED" `Quick
      test_store_admit_durable;
    Alcotest.test_case "store: cancel transitions" `Quick test_store_cancel;
    Alcotest.test_case "store: failed write changes nothing" `Quick
      test_store_failed_write;
    Alcotest.test_case "store: results and completion" `Quick
      test_store_results_complete;
    Alcotest.test_case "store: journal progress" `Quick test_store_progress;
    Alcotest.test_case "store: attempts WAL counts crashes" `Quick
      test_store_attempts_wal;
    Alcotest.test_case "store: quarantine durable and terminal" `Quick
      test_store_quarantine;
    Alcotest.test_case "fsck: truncated submission set aside" `Quick
      test_fsck_truncated_submission;
    Alcotest.test_case "fsck: bit-flipped checksum caught" `Quick
      test_fsck_bitflip_checksum;
    Alcotest.test_case "fsck: headerless record set aside" `Quick
      test_fsck_headerless_record;
    Alcotest.test_case "fsck: garbage journal segment healed" `Quick
      test_fsck_garbage_journal;
    Alcotest.test_case "fsck: orphan and conflicting markers" `Quick
      test_fsck_marker_conflicts;
    Alcotest.test_case "fsck: results torn tail dropped" `Quick
      test_fsck_results_torn_tail;
    Alcotest.test_case "outbuf: bounded chunked buffer" `Quick
      test_outbuf_bounded;
    Alcotest.test_case "retry: EINTR loop" `Quick test_retry_on_eintr;
    Alcotest.test_case "client: send to a closed peer is an error" `Quick
      test_client_send_to_closed_peer;
    Alcotest.test_case "report: codec version stamped" `Quick
      test_report_version_stamped;
    Alcotest.test_case "report: legacy lines accepted as v1" `Quick
      test_report_version_legacy;
    Alcotest.test_case "report: wrong version refused" `Quick
      test_report_version_rejected;
    Alcotest.test_case "fsfile: mkdir_p durability chain" `Quick
      test_fsfile_mkdir_p_nested;
    Alcotest.test_case "fsfile: fsync_dir ignores only EINVAL" `Quick
      test_fsfile_fsync_dir_errors;
    Alcotest.test_case "procpool: job codec round-trip" `Quick
      test_procpool_job_roundtrip;
    Alcotest.test_case "procpool: server codec round-trip" `Quick
      test_procpool_server_roundtrip;
    Alcotest.test_case "procpool: case frame splices report verbatim" `Quick
      test_procpool_case_done_verbatim;
    Alcotest.test_case "procpool: malformed frames rejected" `Quick
      test_procpool_malformed;
    Alcotest.test_case "procpool: poison labels round-trip" `Quick
      test_poison_labels;
    Alcotest.test_case "procpool: respawn backoff bounds" `Quick
      test_procpool_backoff;
    Alcotest.test_case "procpool: refused fork is an error" `Quick
      test_procpool_spawn_refused_fork ]
