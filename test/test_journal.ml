(* The durability layer: render-exact report round trips, write-ahead
   journal persistence, corrupt-tail recovery, checkpoint/resume and the
   campaign fingerprint guard. *)

module Journal = Exec.Journal

let with_dir f =
  let dir = Filename.temp_file "rustbrain-test-journal" "" in
  Sys.remove dir;
  Rb_util.Fsfile.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let mk_report ?(name = "case-a") ?(seconds = 12.5) ?(passed = true) () =
  { Rustbrain.Report.case_name = name;
    category = Miri.Diag.Validity;
    passed;
    semantic = false;
    seconds;
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

(* -- report round trip -------------------------------------------------- *)

let gen_small_string =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 10)
         (oneofl
            [ "a"; "z"; "_"; " "; "\""; "\\"; "\n"; "\t"; ","; ";"; "{"; "[" ])))

let gen_report =
  QCheck.Gen.(
    let int_small = int_range 0 10_000 in
    let* case_name = gen_small_string in
    let* category = oneofl Miri.Diag.all_kinds in
    let* passed = bool in
    let* semantic = bool in
    (* bounded magnitude keeps %.6f printing in the regime where
       print→parse→print is idempotent (documented contract of of_json) *)
    let* seconds = map (fun i -> float_of_int i /. 1000.0) (int_range 0 10_000_000) in
    let* llm_calls = int_small in
    let* tokens = int_small in
    let* iterations = int_small in
    let* solutions_tried = int_small in
    let* rollbacks = int_small in
    let* n_sequence = list_size (int_range 0 6) int_small in
    let* winning_solution = opt gen_small_string in
    let* feedback_hit = bool in
    let* retries = int_small in
    let* faults = int_small in
    let* breaker_trips = int_small in
    let* degraded = bool in
    let* gave_up = bool in
    let* trace = list_size (int_range 0 4) gen_small_string in
    return
      { Rustbrain.Report.case_name; category; passed; semantic; seconds;
        llm_calls; tokens; iterations; solutions_tried; rollbacks; n_sequence;
        winning_solution; feedback_hit; retries; faults; breaker_trips;
        degraded; gave_up; trace })

let report_arb =
  QCheck.make ~print:(fun r -> Rustbrain.Report.to_json r) gen_report

let prop_json_roundtrip =
  QCheck.Test.make ~name:"of_json (to_json r) is render-exact" ~count:300
    report_arb (fun r ->
      let json = Rustbrain.Report.to_json r in
      match Rustbrain.Report.of_json json with
      | Error e -> QCheck.Test.fail_reportf "of_json failed: %s on %s" e json
      | Ok r' ->
        Rustbrain.Report.to_json r' = json
        && Rustbrain.Report.csv_row r' = Rustbrain.Report.csv_row r)

let test_of_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Rustbrain.Report.of_json s with
      | Ok _ -> Alcotest.failf "of_json accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,2]"; "{\"case\":\"x\"}"; "null";
      (* truncated mid-string: a torn journal write *)
      (let j = Rustbrain.Report.to_json (mk_report ()) in
       String.sub j 0 (String.length j / 2)) ]

(* -- journal append/load ------------------------------------------------ *)

let manifest jobs cases =
  { Journal.version = Journal.version; fingerprint = "fp-test"; jobs; cases }

let record ~job ~case ?(seconds = 1.25) () =
  { Journal.job; backend = "rustbrain"; seed = 1; case; cache_hits = 2;
    cache_misses = 3; report = mk_report ~name:case ~seconds () }

let test_journal_roundtrip () =
  with_dir (fun dir ->
      let j = Journal.create ~dir (manifest [ "j0"; "j1" ] [ "a"; "b" ]) in
      Journal.append j (record ~job:"j0" ~case:"a" ()) ~snapshot:"snap-a";
      Journal.append j (record ~job:"j1" ~case:"a" ~seconds:9.75 ()) ~snapshot:"snap-b";
      Journal.append j (record ~job:"j0" ~case:"b" ()) ~snapshot:"snap-c";
      match Journal.load ~dir with
      | Error e -> Alcotest.fail e
      | Ok l ->
        Alcotest.(check int) "records" 3 (List.length l.Journal.records);
        Alcotest.(check int) "nothing dropped" 0 l.Journal.dropped;
        Alcotest.(check string) "manifest fingerprint" "fp-test"
          l.Journal.manifest.Journal.fingerprint;
        Alcotest.(check (list string)) "append order"
          [ "j0/a"; "j1/a"; "j0/b" ]
          (List.map
             (fun (r : Journal.record) -> r.Journal.job ^ "/" ^ r.Journal.case)
             l.Journal.records);
        (* replayed reports render exactly as the originals *)
        List.iter
          (fun (r : Journal.record) ->
            Alcotest.(check string) "render-exact replay"
              (Rustbrain.Report.to_json (mk_report ~name:r.Journal.case
                 ~seconds:r.Journal.report.Rustbrain.Report.seconds ()))
              (Rustbrain.Report.to_json r.Journal.report))
          l.Journal.records;
        (* latest snapshot per job, tagged with that job's record count *)
        Alcotest.(check (option (pair int string))) "j0 snapshot"
          (Some (2, "snap-c"))
          (List.assoc_opt "j0" l.Journal.snapshots);
        Alcotest.(check (option (pair int string))) "j1 snapshot"
          (Some (1, "snap-b"))
          (List.assoc_opt "j1" l.Journal.snapshots))

let test_corrupt_tail_dropped () =
  with_dir (fun dir ->
      let j = Journal.create ~dir (manifest [ "j0" ] [ "a"; "b"; "c" ]) in
      Journal.append j (record ~job:"j0" ~case:"a" ()) ~snapshot:"s1";
      Journal.append j (record ~job:"j0" ~case:"b" ()) ~snapshot:"s2";
      Journal.append j (record ~job:"j0" ~case:"c" ()) ~snapshot:"s3";
      (* truncate the tail segment mid-record: a torn write *)
      let tail = Filename.concat dir "rec-000002.json" in
      let full = Option.get (Rb_util.Fsfile.read tail) in
      let oc = open_out_bin tail in
      output_string oc (String.sub full 0 (String.length full - 7));
      close_out oc;
      (match Journal.load ~dir with
      | Error e -> Alcotest.fail e
      | Ok l ->
        Alcotest.(check int) "valid prefix kept" 2 (List.length l.Journal.records);
        Alcotest.(check int) "tail dropped, not fatal" 1 l.Journal.dropped;
        (* the snapshot now outruns the records; Checkpoint must see the
           disagreement via the embedded count *)
        Alcotest.(check (option (pair int string))) "snapshot count stale"
          (Some (3, "s3"))
          (List.assoc_opt "j0" l.Journal.snapshots));
      (* attach clears the corrupt tail and continues after the prefix *)
      match Journal.attach ~dir with
      | Error e -> Alcotest.fail e
      | Ok j2 ->
        Alcotest.(check bool) "corrupt segment removed" false (Sys.file_exists tail);
        Journal.append j2 (record ~job:"j0" ~case:"c" ()) ~snapshot:"s3'";
        (match Journal.load ~dir with
        | Error e -> Alcotest.fail e
        | Ok l2 ->
          Alcotest.(check int) "recomputed record landed" 3
            (List.length l2.Journal.records);
          Alcotest.(check int) "clean again" 0 l2.Journal.dropped;
          Alcotest.(check (option (pair int string))) "snapshot consistent again"
            (Some (3, "s3'"))
            (List.assoc_opt "j0" l2.Journal.snapshots)))

let test_corrupt_snapshot_omitted () =
  with_dir (fun dir ->
      let j = Journal.create ~dir (manifest [ "j0" ] [ "a" ]) in
      Journal.append j (record ~job:"j0" ~case:"a" ()) ~snapshot:"payload";
      let snap = Filename.concat dir "snap-000.bin" in
      let oc = open_out_bin snap in
      output_string oc "RBSNAP1 1 0123456789abcdef0123456789abcdef\npayloaX";
      close_out oc;
      match Journal.load ~dir with
      | Error e -> Alcotest.fail e
      | Ok l ->
        Alcotest.(check int) "records intact" 1 (List.length l.Journal.records);
        Alcotest.(check bool) "bad snapshot omitted" true
          (List.assoc_opt "j0" l.Journal.snapshots = None))

let test_kill_after () =
  with_dir (fun dir ->
      let j = Journal.create ~dir (manifest [ "j0" ] [ "a"; "b"; "c" ]) in
      Journal.kill_after j 2;
      Journal.append j (record ~job:"j0" ~case:"a" ()) ~snapshot:"s";
      Journal.append j (record ~job:"j0" ~case:"b" ()) ~snapshot:"s";
      (match Journal.append j (record ~job:"j0" ~case:"c" ()) ~snapshot:"s" with
      | () -> Alcotest.fail "expected Killed"
      | exception Journal.Killed -> ());
      (* a dead writer stays dead *)
      (match Journal.append j (record ~job:"j0" ~case:"c" ()) ~snapshot:"s" with
      | () -> Alcotest.fail "expected Killed again"
      | exception Journal.Killed -> ());
      match Journal.load ~dir with
      | Error e -> Alcotest.fail e
      | Ok l ->
        Alcotest.(check int) "exactly the budgeted records durable" 2
          (List.length l.Journal.records))

let test_manifest_guard () =
  with_dir (fun dir ->
      Alcotest.(check bool) "no journal yet" false (Journal.exists ~dir);
      (match Journal.attach ~dir with
      | Ok _ -> Alcotest.fail "attach without manifest must fail"
      | Error _ -> ());
      let _ = Journal.create ~dir (manifest [ "j0" ] [ "a" ]) in
      Alcotest.(check bool) "journal exists" true (Journal.exists ~dir);
      Journal.wipe ~dir;
      Alcotest.(check bool) "wiped" false (Journal.exists ~dir))

(* -- snapshot/restore determinism --------------------------------------- *)

let two_cases () =
  match Dataset.Corpus.all with
  | a :: b :: _ -> (a, b)
  | _ -> Alcotest.fail "corpus too small"

let test_snapshot_restore_determinism () =
  let a, b = two_cases () in
  let runner = Exec.Backends.rustbrain () in
  let live = Exec.Runner.start runner in
  let _ = Exec.Runner.step live a in
  let frozen = Exec.Runner.snapshot live in
  (* continuing the live session and continuing the restored one must
     produce byte-identical reports: sessions accumulate cross-case state
     (tokens, RNG streams, feedback), so this is the property resume
     correctness stands on *)
  let r_live = Exec.Runner.step live b in
  let restored =
    Exec.Runner.start (Option.get (Exec.Runner.resume runner frozen))
  in
  let r_restored = Exec.Runner.step restored b in
  Alcotest.(check string) "restored session continues identically"
    (Rustbrain.Report.to_json r_live)
    (Rustbrain.Report.to_json r_restored)

(* -- checkpoint/resume --------------------------------------------------- *)

let quick_jobs ?(seeds = [ 1; 2 ]) () =
  let a, b = two_cases () in
  Exec.Scheduler.seeded_jobs (Exec.Backends.human_expert ()) ~seeds [ a; b ]

let render results =
  List.concat_map (fun r -> r.Exec.Scheduler.reports) results
  |> List.map Rustbrain.Report.to_json

let test_checkpoint_kill_resume () =
  with_dir (fun dir ->
      let baseline =
        let results, _ = Exec.Scheduler.run_jobs ~domains:1 (quick_jobs ()) in
        render results
      in
      let o1 =
        Exec.Checkpoint.run ~domains:1 ~kill_after:2 ~dir
          ~mode:Exec.Checkpoint.Fresh (quick_jobs ())
      in
      Alcotest.(check bool) "killed run crashed" true
        (Exec.Scheduler.failures o1.Exec.Checkpoint.results <> []);
      let o2 =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
          (quick_jobs ())
      in
      Alcotest.(check (list string)) "stitched == uninterrupted" baseline
        (render o2.Exec.Checkpoint.results);
      Alcotest.(check int) "journaled work replayed, not re-verified" 2
        o2.Exec.Checkpoint.replayed;
      Alcotest.(check int) "only the remainder recomputed" 2
        o2.Exec.Checkpoint.recomputed)

let test_checkpoint_fingerprint_mismatch () =
  with_dir (fun dir ->
      let _ =
        Exec.Checkpoint.run ~domains:1 ~kill_after:1 ~dir
          ~mode:Exec.Checkpoint.Fresh (quick_jobs ())
      in
      (match
         Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
           (quick_jobs ~seeds:[ 7; 8 ] ())
       with
      | _ -> Alcotest.fail "foreign journal accepted"
      | exception Exec.Checkpoint.Fingerprint_mismatch _ -> ());
      (* --fresh semantics: the same foreign jobs are fine when starting over *)
      let o =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Fresh
          (quick_jobs ~seeds:[ 7; 8 ] ())
      in
      Alcotest.(check int) "fresh run recomputes everything" 4
        o.Exec.Checkpoint.recomputed)

let test_checkpoint_truncated_tail_recomputes () =
  with_dir (fun dir ->
      let baseline =
        let results, _ = Exec.Scheduler.run_jobs ~domains:1 (quick_jobs ()) in
        render results
      in
      let _ =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Fresh
          (quick_jobs ())
      in
      (* tear the last record: its job's snapshot now outruns the records,
         so that job must be recomputed from scratch — and the final
         reports must still be byte-identical *)
      let tail = Filename.concat dir "rec-000003.json" in
      let full = Option.get (Rb_util.Fsfile.read tail) in
      let oc = open_out_bin tail in
      output_string oc (String.sub full 0 (String.length full - 5));
      close_out oc;
      let o =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
          (quick_jobs ())
      in
      Alcotest.(check int) "torn record detected" 1 o.Exec.Checkpoint.dropped;
      Alcotest.(check (list string)) "reports still byte-identical" baseline
        (render o.Exec.Checkpoint.results);
      (* the journal heals: a further resume replays everything *)
      let o2 =
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
          (quick_jobs ())
      in
      Alcotest.(check int) "healed journal fully replays" 0
        o2.Exec.Checkpoint.recomputed)

(* -- snapshot size ---------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_snapshot_size_independent_of_kb () =
  (* a session on a persistent KB snapshots a reference to the frozen rows,
     never the rows: two cases against a 2,000-row slice journal a
     snapshot of kilobytes *)
  let root = Filename.temp_file "rustbrain-test-snap" "" in
  Sys.remove root;
  Fun.protect
    ~finally:(fun () -> try rm_rf root with Sys_error _ -> ())
    (fun () ->
      let slice = Filename.concat root "kb" in
      let journal = Filename.concat root "journal" in
      (match
         Knowledge.Segment.open_writer
           ~expect:(Knowledge.Featvec.dim, Knowledge.Featvec.version)
           ~dir:slice ()
       with
      | Error e -> Alcotest.fail e
      | Ok (w, _) ->
        let kinds = Array.of_list Miri.Diag.all_kinds in
        let hash_dim = Knowledge.Featvec.hash_dim in
        for i = 0 to 1999 do
          let category = kinds.(i mod Array.length kinds) in
          let vec = Array.make Knowledge.Featvec.dim 0.0 in
          vec.(i mod hash_dim) <- 1.0;
          vec.(hash_dim + Knowledge.Featvec.category_index category) <- 2.0;
          let payload =
            Knowledge.Kb.entry_to_json
              { Knowledge.Kb.category;
                advice = Printf.sprintf "row %d" i;
                recommended = Repairs.Rule.Modify }
          in
          match Knowledge.Segment.append w ~vec ~payload with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e
        done;
        Knowledge.Segment.close w);
      let a, b = two_cases () in
      let runner =
        Exec.Backends.rustbrain
          ~config:
            { Rustbrain.Pipeline.default_config with
              Rustbrain.Pipeline.kb_dir = Some slice;
              kb_readonly = true }
          ()
      in
      let o =
        Exec.Checkpoint.run ~domains:1 ~dir:journal ~mode:Exec.Checkpoint.Fresh
          (Exec.Scheduler.seeded_jobs runner ~seeds:[ 1 ] [ a; b ])
      in
      Alcotest.(check int) "both cases repaired" 2
        (List.length (render o.Exec.Checkpoint.results));
      let snaps =
        List.filter
          (fun f -> String.starts_with ~prefix:"snap-" f)
          (Array.to_list (Sys.readdir journal))
      in
      Alcotest.(check int) "one snapshot" 1 (List.length snaps);
      List.iter
        (fun f ->
          let size = (Unix.stat (Filename.concat journal f)).Unix.st_size in
          if size >= 64 * 1024 then
            Alcotest.failf "%s is %d B, want under 64 KB" f size)
        snaps)

let suite =
  [ QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "of_json rejects garbage" `Quick test_of_json_rejects_garbage;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "corrupt tail dropped" `Quick test_corrupt_tail_dropped;
    Alcotest.test_case "corrupt snapshot omitted" `Quick test_corrupt_snapshot_omitted;
    Alcotest.test_case "kill_after" `Quick test_kill_after;
    Alcotest.test_case "manifest guard" `Quick test_manifest_guard;
    Alcotest.test_case "snapshot/restore determinism" `Slow
      test_snapshot_restore_determinism;
    Alcotest.test_case "checkpoint kill+resume" `Quick test_checkpoint_kill_resume;
    Alcotest.test_case "fingerprint mismatch refused" `Quick
      test_checkpoint_fingerprint_mismatch;
    Alcotest.test_case "truncated tail recomputed" `Quick
      test_checkpoint_truncated_tail_recomputes;
    Alcotest.test_case "snapshot size independent of the KB's" `Quick
      test_snapshot_size_independent_of_kb ]
