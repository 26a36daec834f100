(* The unified campaign-runner API: backend packing, the domain-parallel
   scheduler's determinism contract, and the verification cache's
   transparency (identical reports with the cache on, off, sequential or
   sharded across domains). *)

(* a small cross-category slice keeps the determinism tests fast while still
   exercising multi-solution repairs and reference caching *)
let small_corpus () = List.filteri (fun i _ -> i mod 16 = 0) Dataset.Corpus.all

let case () = List.hd Dataset.Corpus.all

(* -- Runner packing ---------------------------------------------------- *)

let test_backend_names () =
  Alcotest.(check (list string))
    "registry spelling"
    [ "rustbrain"; "llm-only"; "rust-assistant"; "human-expert" ]
    Exec.Backends.all_names;
  List.iter
    (fun name ->
      match Exec.Backends.of_name name with
      | None -> Alcotest.failf "of_name %S returned None" name
      | Some r -> Alcotest.(check string) "name roundtrip" name (Exec.Runner.name r))
    Exec.Backends.all_names;
  Alcotest.(check bool) "unknown backend" true (Exec.Backends.of_name "gpt-17" = None)

let test_with_seed_repacks () =
  let r = Exec.Backends.rustbrain () in
  let r7 = Exec.Runner.with_seed r 7 in
  (* the reseeded runner must behave like a directly-configured one *)
  let direct =
    Exec.Backends.rustbrain
      ~config:{ Rustbrain.Pipeline.default_config with Rustbrain.Pipeline.seed = 7 }
      ()
  in
  let cases = [ case () ] in
  let a, _ = Exec.Runner.run r7 cases in
  let b, _ = Exec.Runner.run direct cases in
  Alcotest.(check bool) "same reports" true (a = b)

(* -- Scheduler determinism --------------------------------------------- *)

let jobs cases =
  [ { Exec.Scheduler.label = "rustbrain/seed1";
      runner = Exec.Runner.with_seed (Exec.Backends.rustbrain ()) 1;
      cases };
    { Exec.Scheduler.label = "rustbrain/seed2";
      runner = Exec.Runner.with_seed (Exec.Backends.rustbrain ()) 2;
      cases };
    { Exec.Scheduler.label = "llm-only/seed1";
      runner = Exec.Runner.with_seed (Exec.Backends.llm_only ()) 1;
      cases } ]

let test_parallel_equals_sequential () =
  let cases = small_corpus () in
  let seq, _ = Exec.Scheduler.run_jobs ~domains:1 (jobs cases) in
  let par, _ = Exec.Scheduler.run_jobs ~domains:3 (jobs cases) in
  Alcotest.(check int) "job count" (List.length seq) (List.length par);
  List.iter2
    (fun (s : Exec.Scheduler.result) (p : Exec.Scheduler.result) ->
      Alcotest.(check string) "job order" s.Exec.Scheduler.job.Exec.Scheduler.label
        p.Exec.Scheduler.job.Exec.Scheduler.label;
      Alcotest.(check bool)
        (Printf.sprintf "reports of %s byte-identical"
           s.Exec.Scheduler.job.Exec.Scheduler.label)
        true
        (s.Exec.Scheduler.reports = p.Exec.Scheduler.reports))
    seq par

let test_run_seeded_order () =
  let cases = [ case () ] in
  let reports, _ =
    Exec.Scheduler.run_seeded ~domains:2 (Exec.Backends.rustbrain ()) ~seeds:[ 1; 2; 3 ]
      cases
  in
  Alcotest.(check int) "one report per seed" 3 (List.length reports);
  (* seed order is preserved: each seed's report for the same case *)
  let inline seed =
    Rustbrain.Pipeline.run_campaign
      { Rustbrain.Pipeline.default_config with Rustbrain.Pipeline.seed }
      cases
  in
  Alcotest.(check bool) "matches inline per-seed runs" true
    (reports = List.concat_map inline [ 1; 2; 3 ])

(* -- Crash isolation --------------------------------------------------- *)

(* a backend whose campaign always raises: the scheduler must capture it as
   that job's failure without disturbing sibling jobs *)
module Crashy = struct
  type config = int
  type session = unit

  let name = "crashy"
  let default_config = 0
  let with_seed _cfg seed = seed
  let seed cfg = cfg
  let create_session _cfg = ()
  let repair_case () _case : Rustbrain.Report.t = failwith "boom"
  let session_stats () = Exec.Runner.no_stats
  let resumable () = true
end

let mixed_jobs cases =
  [ { Exec.Scheduler.label = "good1";
      runner = Exec.Runner.with_seed (Exec.Backends.human_expert ()) 1;
      cases };
    { Exec.Scheduler.label = "crashy";
      runner = Exec.Runner.pack (module Crashy) 0;
      cases };
    { Exec.Scheduler.label = "good2";
      runner = Exec.Runner.with_seed (Exec.Backends.human_expert ()) 2;
      cases } ]

let test_crash_isolated () =
  let cases = [ case () ] in
  List.iter
    (fun domains ->
      let results, _ = Exec.Scheduler.run_jobs ~domains (mixed_jobs cases) in
      Alcotest.(check int) "every job reports" 3 (List.length results);
      Alcotest.(check (list string)) "job order preserved"
        [ "good1"; "crashy"; "good2" ]
        (List.map
           (fun (r : Exec.Scheduler.result) -> r.Exec.Scheduler.job.Exec.Scheduler.label)
           results);
      let ok, failed =
        List.partition
          (fun (r : Exec.Scheduler.result) -> r.Exec.Scheduler.failure = None)
          results
      in
      Alcotest.(check int) "siblings completed" 2 (List.length ok);
      List.iter
        (fun (r : Exec.Scheduler.result) ->
          Alcotest.(check int) "sibling produced its report" 1
            (List.length r.Exec.Scheduler.reports))
        ok;
      match failed with
      | [ f ] ->
        Alcotest.(check string) "the crashing job failed" "crashy"
          f.Exec.Scheduler.job.Exec.Scheduler.label;
        Alcotest.(check bool) "reports dropped" true (f.Exec.Scheduler.reports = []);
        (match f.Exec.Scheduler.failure with
        | None -> Alcotest.fail "expected a captured failure"
        | Some fl ->
          Alcotest.(check bool) "exception preserved" true
            (Helpers.contains fl.Exec.Scheduler.exn "boom"))
      | _ -> Alcotest.failf "expected exactly one failure, got %d" (List.length failed))
    [ 1; 2 ]

let test_every_failure_preserved () =
  (* the old scheduler re-raised only the first exception; now every crash
     is kept, each with its own job *)
  let cases = [ case () ] in
  let jobs =
    List.map
      (fun i ->
        { Exec.Scheduler.label = Printf.sprintf "crashy%d" i;
          runner = Exec.Runner.pack (module Crashy) i;
          cases })
      [ 1; 2; 3 ]
  in
  let results, _ = Exec.Scheduler.run_jobs ~domains:2 jobs in
  let failures = Exec.Scheduler.failures results in
  Alcotest.(check (list string)) "all three failures, in order"
    [ "crashy1"; "crashy2"; "crashy3" ]
    (List.map (fun ((j : Exec.Scheduler.job), _) -> j.Exec.Scheduler.label) failures)

let test_run_seeded_partial () =
  let cases = [ case () ] in
  (* run_seeded must not raise on a crashing campaign: it reports partial
     results (none here) instead *)
  let reports, _ =
    Exec.Scheduler.run_seeded ~domains:2
      (Exec.Runner.pack (module Crashy) 0)
      ~seeds:[ 1; 2 ] cases
  in
  Alcotest.(check int) "partial results surfaced" 0 (List.length reports)

(* -- Verification cache ------------------------------------------------ *)

let test_cache_hits_on_repeat () =
  let session = Rustbrain.Pipeline.create_session Rustbrain.Pipeline.default_config in
  let c = case () in
  let r1 = Rustbrain.Pipeline.repair session c in
  let stats1 = Miri.Machine.Cache.stats (Rustbrain.Pipeline.verification_cache session) in
  Alcotest.(check bool) "first repair already hits (within-repair reuse)" true
    (stats1.Miri.Machine.Cache.hits >= 0);
  let r2 = Rustbrain.Pipeline.repair session c in
  let stats2 = Miri.Machine.Cache.stats (Rustbrain.Pipeline.verification_cache session) in
  Alcotest.(check bool) "repeat verification hits the cache" true
    (stats2.Miri.Machine.Cache.hits > stats1.Miri.Machine.Cache.hits);
  (* repeating the same case in the same session accumulates KB/feedback
     state, so only cache-derived fields must agree *)
  Alcotest.(check string) "same case" r1.Rustbrain.Report.case_name
    r2.Rustbrain.Report.case_name

let test_cache_transparent () =
  let cases = small_corpus () in
  let with_cache use_cache =
    Rustbrain.Pipeline.run_campaign
      { Rustbrain.Pipeline.default_config with Rustbrain.Pipeline.use_cache } cases
  in
  Alcotest.(check bool) "cache on == cache off, report for report" true
    (with_cache true = with_cache false)

let test_cache_disabled_no_counting () =
  let session =
    Rustbrain.Pipeline.create_session
      { Rustbrain.Pipeline.default_config with Rustbrain.Pipeline.use_cache = false }
  in
  ignore (Rustbrain.Pipeline.repair session (case ()));
  let stats = Miri.Machine.Cache.stats (Rustbrain.Pipeline.verification_cache session) in
  Alcotest.(check int) "no hits" 0 stats.Miri.Machine.Cache.hits;
  Alcotest.(check int) "no misses" 0 stats.Miri.Machine.Cache.misses

let test_stats_aggregation () =
  let cases = [ case () ] in
  let _, stats =
    Exec.Scheduler.run_seeded ~domains:1 (Exec.Backends.rustbrain ()) ~seeds:[ 1; 2 ]
      cases
  in
  Alcotest.(check bool) "hits accumulated across campaigns" true
    (stats.Exec.Runner.cache_hits > 0);
  let rate = Exec.Runner.hit_rate stats in
  Alcotest.(check bool) "hit rate in (0,1]" true (rate > 0.0 && rate <= 1.0)

(* -- Report serialization ---------------------------------------------- *)

let sample_report () =
  let session = Rustbrain.Pipeline.create_session Rustbrain.Pipeline.default_config in
  Rustbrain.Pipeline.repair session (case ())

let test_report_json () =
  let r = sample_report () in
  let json = Rustbrain.Report.to_json r in
  Alcotest.(check bool) "object braces" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}');
  let has needle =
    let open String in
    let n = length needle in
    let rec go i = i + n <= length json && (sub json i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun field -> Alcotest.(check bool) ("field " ^ field) true (has ("\"" ^ field ^ "\"")))
    [ "case"; "category"; "passed"; "semantic"; "seconds"; "llm_calls"; "tokens";
      "iterations"; "solutions_tried"; "rollbacks"; "n_sequence"; "winning_solution";
      "feedback_hit"; "retries"; "faults"; "breaker_trips"; "degraded"; "gave_up";
      "trace" ];
  Alcotest.(check bool) "case name embedded" true
    (has (Printf.sprintf "%S" r.Rustbrain.Report.case_name))

let test_report_csv () =
  let r = sample_report () in
  let header_cols = String.split_on_char ',' Rustbrain.Report.csv_header in
  Alcotest.(check int) "18 columns" 18 (List.length header_cols);
  (* a row with no quoted fields has exactly as many columns as the header;
     the sample corpus names contain no commas *)
  let row = Rustbrain.Report.csv_row r in
  Alcotest.(check int) "row arity" (List.length header_cols)
    (List.length (String.split_on_char ',' row))

let suite =
  [ Alcotest.test_case "backend names" `Quick test_backend_names;
    Alcotest.test_case "with_seed repacks" `Quick test_with_seed_repacks;
    Alcotest.test_case "parallel == sequential" `Slow test_parallel_equals_sequential;
    Alcotest.test_case "run_seeded order" `Quick test_run_seeded_order;
    Alcotest.test_case "crash isolated per job" `Quick test_crash_isolated;
    Alcotest.test_case "every failure preserved" `Quick test_every_failure_preserved;
    Alcotest.test_case "run_seeded partial on crash" `Quick test_run_seeded_partial;
    Alcotest.test_case "cache hits on repeat" `Quick test_cache_hits_on_repeat;
    Alcotest.test_case "cache transparent" `Slow test_cache_transparent;
    Alcotest.test_case "cache disabled counts nothing" `Quick test_cache_disabled_no_counting;
    Alcotest.test_case "stats aggregation" `Quick test_stats_aggregation;
    Alcotest.test_case "report json" `Quick test_report_json;
    Alcotest.test_case "report csv" `Quick test_report_csv ]
