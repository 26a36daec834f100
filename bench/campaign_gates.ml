(* Campaign and durability gates: scheduler determinism and the
   verification cache (`smoke`), resilience knobs invisible at fault rate
   0 and crash isolation (`resilience-smoke`), and kill at a record
   boundary then resume byte-identical (`chaos`, and `resume-smoke`, its
   runtest-sized cut). *)

open Harness

(* -- smoke gate (dune runtest alias bench-smoke) ----------------------- *)

let smoke () =
  section "Smoke — scheduler determinism and cache effectiveness (tiny corpus)";
  let cases = List.filteri (fun i _ -> i mod 8 = 0) Dataset.Corpus.all in
  let failures = ref 0 in
  let check runner =
    let name = Exec.Runner.name runner in
    let seq, _ = Exec.Scheduler.run_seeded ~domains:1 runner ~seeds:[ 1; 2 ] cases in
    let par, stats = Exec.Scheduler.run_seeded ~domains:2 runner ~seeds:[ 1; 2 ] cases in
    let same = seq = par in
    Printf.printf "%-16s %3d report(s)  parallel==sequential:%b  cache hits:%d\n" name
      (List.length par) same stats.Exec.Runner.cache_hits;
    if not same then begin
      Printf.eprintf "FAIL %s: parallel reports differ from sequential\n" name;
      incr failures
    end;
    if stats.Exec.Runner.cache_hits = 0 then begin
      (* every backend re-verifies candidates against the same references, so
         zero hits means the cache is not wired in *)
      Printf.eprintf "FAIL %s: verification cache never hit\n" name;
      incr failures
    end
  in
  check (Exec.Backends.rustbrain ());
  check (Exec.Backends.llm_only ());
  if !failures > 0 then exit 1;
  print_endline "smoke ok"

(* -- resilience smoke gate (dune runtest alias resilience-smoke) ------- *)

let resilience_smoke () =
  section "Resilience smoke — fault-rate-0 byte-identity, faulted determinism, crash isolation";
  let cases = List.filteri (fun i _ -> i mod 8 = 0) Dataset.Corpus.all in
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL %s\n" s; incr failures) fmt in
  let render cfg domains =
    let reports, _ =
      Exec.Scheduler.run_seeded ~domains
        (Exec.Backends.rustbrain ~config:cfg ())
        ~seeds:[ 1; 2 ] cases
    in
    List.map Rustbrain.Report.to_json reports
  in
  (* leg 1: with every fault rate zero, the resilience knobs are invisible —
     reports byte-identical to the default config, at any domain count *)
  let plain = render (Paper.rustbrain_cfg ~seed:1 ()) 1 in
  let knobbed =
    { (Paper.rustbrain_cfg ~seed:1 ()) with
      Rustbrain.Pipeline.fault_rate = 0.0; max_retries = 9;
      deadline = Some 1.0e9 }
  in
  if render knobbed 1 <> plain then fail "fault-rate 0 not byte-identical (1 domain)";
  if render knobbed 2 <> plain then fail "fault-rate 0 not byte-identical (2 domains)";
  Printf.printf "fault-rate 0 byte-identity: %d report(s) checked\n" (List.length plain);
  (* leg 2: a faulted campaign is same-seed deterministic across runs and
     domain counts, and actually injects faults *)
  let faulted = { (Paper.rustbrain_cfg ~seed:1 ()) with Rustbrain.Pipeline.fault_rate = 0.3 } in
  let f1 = render faulted 1 in
  if render faulted 1 <> f1 then fail "faulted campaign differs between runs";
  if render faulted 2 <> f1 then fail "faulted campaign differs across domain counts";
  if not (List.exists (fun j -> not (contains j "\"faults\":0,")) f1) then
    fail "fault rate 0.3 injected nothing";
  Printf.printf "faulted campaign (rate 0.3): deterministic over %d report(s)\n"
    (List.length f1);
  (* leg 3: a crashing campaign never poisons its siblings *)
  let module Crashy = struct
    type config = int
    type session = unit

    let name = "crashy"
    let default_config = 0
    let with_seed _ seed = seed
    let seed cfg = cfg
    let create_session _ = ()

    let repair_case () _ : Rustbrain.Report.t = failwith "injected crash"
    let session_stats () = Exec.Runner.no_stats
    let resumable () = true
  end in
  let job runner = { Exec.Scheduler.label = Exec.Runner.name runner; runner; cases } in
  let results, _ =
    Exec.Scheduler.run_jobs ~domains:2
      [ job (Exec.Backends.human_expert ());
        job (Exec.Runner.pack (module Crashy) 0);
        job (Exec.Backends.human_expert ()) ]
  in
  (match List.map (fun r -> r.Exec.Scheduler.failure <> None) results with
  | [ false; true; false ] -> ()
  | _ -> fail "crash isolation: expected exactly the crashy job to fail");
  List.iteri
    (fun i r ->
      if i <> 1 && List.length r.Exec.Scheduler.reports <> List.length cases then
        fail "crash isolation: sibling job lost reports")
    results;
  Printf.printf "crash isolation: 1 crash contained, %d sibling report(s) intact\n"
    (List.fold_left
       (fun a r -> a + List.length r.Exec.Scheduler.reports)
       0 results);
  if !failures > 0 then exit 1;
  print_endline "resilience smoke ok"

(* -- chaos: kill-and-resume byte-identity ------------------------------ *)

let with_journal_dir f =
  (* temp_file reserves a unique name; reuse it as a directory *)
  let dir = Filename.temp_file "rustbrain-journal" "" in
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

(* Kill a journaled campaign after [kill] durable records, resume it, and
   demand the stitched reports render byte-identically (JSON and CSV) to an
   uninterrupted unjournaled run — with zero re-verification of journaled
   cases. Returns the number of (kill, domains) scenarios exercised. *)
let chaos_check ~cases ~seeds ~kill_points ~domain_counts ~fail =
  let runner = Exec.Backends.rustbrain () in
  let jobs () = Exec.Scheduler.seeded_jobs runner ~seeds cases in
  let render results =
    let reports = List.concat_map (fun r -> r.Exec.Scheduler.reports) results in
    (List.map Rustbrain.Report.to_json reports,
     List.map Rustbrain.Report.csv_row reports)
  in
  let baseline =
    let results, _ = Exec.Scheduler.run_jobs ~domains:1 (jobs ()) in
    render results
  in
  let total = List.length seeds * List.length cases in
  List.iter
    (fun domains ->
      List.iter
        (fun kill ->
          with_journal_dir (fun dir ->
              let o1 =
                Exec.Checkpoint.run ~domains ~kill_after:kill ~dir
                  ~mode:Exec.Checkpoint.Fresh (jobs ())
              in
              if kill < total
                 && Exec.Scheduler.failures o1.Exec.Checkpoint.results = []
              then
                fail (Printf.sprintf "chaos kill@%d/%d domains=%d: no job died" kill total domains);
              let o2 =
                Exec.Checkpoint.run ~domains ~dir ~mode:Exec.Checkpoint.Resume
                  (jobs ())
              in
              if Exec.Scheduler.failures o2.Exec.Checkpoint.results <> [] then
                fail (Printf.sprintf "chaos kill@%d domains=%d: resume crashed" kill domains);
              if render o2.Exec.Checkpoint.results <> baseline then
                fail
                  (Printf.sprintf
                     "chaos kill@%d domains=%d: stitched reports not byte-identical"
                     kill domains);
              let expected_replay = min kill total in
              if o2.Exec.Checkpoint.replayed <> expected_replay then
                fail
                  (Printf.sprintf
                     "chaos kill@%d domains=%d: replayed %d of %d journaled \
                      case(s) (journaled work re-verified)"
                     kill domains o2.Exec.Checkpoint.replayed expected_replay);
              if o2.Exec.Checkpoint.replayed + o2.Exec.Checkpoint.recomputed
                 <> total
              then
                fail
                  (Printf.sprintf
                     "chaos kill@%d domains=%d: replay %d + recompute %d <> %d"
                     kill domains o2.Exec.Checkpoint.replayed
                     o2.Exec.Checkpoint.recomputed total)))
        kill_points)
    domain_counts;
  (* a journal for different jobs must be refused, not replayed *)
  with_journal_dir (fun dir ->
      let _ =
        Exec.Checkpoint.run ~domains:1 ~kill_after:1 ~dir
          ~mode:Exec.Checkpoint.Fresh (jobs ())
      in
      match
        Exec.Checkpoint.run ~domains:1 ~dir ~mode:Exec.Checkpoint.Resume
          (Exec.Scheduler.seeded_jobs runner ~seeds:[ 4242 ] cases)
      with
      | _ -> fail "chaos: foreign journal was not refused"
      | exception Exec.Checkpoint.Fingerprint_mismatch _ -> ());
  (total, List.length kill_points * List.length domain_counts)

let chaos () =
  section "Chaos — kill at seeded record boundaries, resume, byte-identical reports";
  let cases = List.filteri (fun i _ -> i mod 4 = 0) Dataset.Corpus.all in
  let failures = ref 0 in
  let fail s =
    Printf.eprintf "FAIL %s\n" s;
    incr failures
  in
  let total, scenarios =
    chaos_check ~cases ~seeds:[ 1; 2 ] ~kill_points:[ 0; 1; 2; 5; 9; 14; 19 ]
      ~domain_counts:[ 1; 2; 4 ] ~fail
  in
  (* a resume of an already-complete journal replays everything and runs
     nothing *)
  with_journal_dir (fun dir ->
      let runner = Exec.Backends.rustbrain () in
      let jobs = Exec.Scheduler.seeded_jobs runner ~seeds:[ 1; 2 ] cases in
      let _ =
        Exec.Checkpoint.run ~domains:2 ~dir ~mode:Exec.Checkpoint.Fresh jobs
      in
      let o = Exec.Checkpoint.run ~domains:2 ~dir ~mode:Exec.Checkpoint.Resume jobs in
      if o.Exec.Checkpoint.recomputed <> 0 || o.Exec.Checkpoint.replayed <> total
      then
        fail
          (Printf.sprintf "chaos: complete journal still recomputed %d case(s)"
             o.Exec.Checkpoint.recomputed));
  if !failures > 0 then exit 1;
  Printf.printf
    "chaos ok: %d kill/resume scenario(s) over %d case-repairs, all stitched \
     reports byte-identical, zero journaled re-verification\n"
    scenarios total

(* -- resume smoke gate (dune runtest alias resume-smoke) --------------- *)

let resume_smoke () =
  section "Resume smoke — crash at a record boundary, resume, byte-identity";
  let cases = List.filteri (fun i _ -> i mod 8 = 0) Dataset.Corpus.all in
  let failures = ref 0 in
  let fail s =
    Printf.eprintf "FAIL %s\n" s;
    incr failures
  in
  let total, scenarios =
    chaos_check ~cases ~seeds:[ 1; 2 ] ~kill_points:[ 0; 3; 7 ]
      ~domain_counts:[ 1; 2 ] ~fail
  in
  if !failures > 0 then exit 1;
  Printf.printf
    "resume smoke ok: %d scenario(s) over %d case-repairs byte-identical after \
     kill+resume\n"
    scenarios total
