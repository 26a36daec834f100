(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's per-experiment index), plus Bechamel
   micro-benchmarks of the substrates.

   Usage:
     dune exec bench/main.exe             # everything
     dune exec bench/main.exe -- fig8     # a single experiment
   Experiments: fig5 fig7 fig8 fig9 fig10 fig11 fig12 table1 ablate perf smoke
                resilience resilience-smoke chaos resume-smoke

   Every multi-seed campaign goes through the unified Exec runner API, so
   backends are interchangeable and campaigns shard across domains; `perf`
   additionally measures real wall-clock for the scheduler + verification
   cache, and `smoke` is a fast determinism/cache gate wired into runtest.

   Reported times are *simulated* seconds (LLM latency + verification runs on
   the simulated clock); rates are measured by actually running each repaired
   program. EXPERIMENTS.md records the paper-vs-measured comparison. *)

let seeds = [ 1; 2; 3 ]

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let contains hay sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = sub || go (i + 1)) in
  n = 0 || go 0

(* -- aggregation ----------------------------------------------------- *)

type rates = { pass : float; exec : float; mean_seconds : float; n : int }

let rates_of (reports : Rustbrain.Report.t list) =
  {
    pass = Statkit.Stats.proportion (fun (r : Rustbrain.Report.t) -> r.Rustbrain.Report.passed) reports;
    exec = Statkit.Stats.proportion (fun (r : Rustbrain.Report.t) -> r.Rustbrain.Report.semantic) reports;
    mean_seconds =
      Statkit.Stats.mean (List.map (fun (r : Rustbrain.Report.t) -> r.Rustbrain.Report.seconds) reports);
    n = List.length reports;
  }

let rustbrain_cfg ?(kb = true) ?(feedback = true) ?(model = Llm_sim.Profile.Gpt4)
    ?(temperature = 0.5) ?(rollback = Rustbrain.Slow_think.Adaptive) ~seed () =
  { Rustbrain.Pipeline.default_config with
    Rustbrain.Pipeline.model; temperature; use_kb = kb; use_feedback = feedback;
    rollback; seed }

(* One generic multi-seed driver for every backend: pack the configured
   backend once, let the scheduler re-seed it per campaign and shard the
   campaigns over domains. *)
let run_campaign runner cases = fst (Exec.Scheduler.run_seeded runner ~seeds cases)

let run_rustbrain ?kb ?feedback ?model ?temperature ?rollback cases =
  run_campaign
    (Exec.Backends.rustbrain
       ~config:(rustbrain_cfg ?kb ?feedback ?model ?temperature ?rollback ~seed:1 ())
       ())
    cases

let run_alone ?(model = Llm_sim.Profile.Gpt4) cases =
  run_campaign
    (Exec.Backends.llm_only
       ~config:{ Baselines.Llm_only.default_config with Baselines.Llm_only.model }
       ())
    cases

let run_rust_assistant cases = run_campaign (Exec.Backends.rust_assistant ()) cases

(* -- Fig. 7 (RQ1, flexibility) --------------------------------------- *)

(* Ten solution groups over one semantic-modification UB, mirroring the
   paper's figure: agent orders differ, the knowledge base is toggled, group
   3 stands for the generic fixed-framework plan. *)
let fig7 () =
  section "Fig. 7 — RQ1 flexibility: ten solutions for one semantic-modification UB";
  let case = Option.get (Dataset.Corpus.find "va_partial_init") in
  let open Rustbrain in
  let fix c = Solution.Fix c in
  let groups =
    [ (1, "modify-only", [ fix Ub_class.C_modify; fix Ub_class.C_modify ], false);
      (2, "modify-then-assert", [ fix Ub_class.C_modify; fix Ub_class.C_assert ], false);
      (3, "generic fixed plan", [ fix Ub_class.C_replace; fix Ub_class.C_assert; fix Ub_class.C_modify;
                                  fix Ub_class.C_replace; fix Ub_class.C_assert ], false);
      (4, "assert-first", [ fix Ub_class.C_assert; fix Ub_class.C_modify ], false);
      (5, "abstract+modify (KB)", [ Solution.Abstract; fix Ub_class.C_modify ], true);
      (6, "abstract+sweep (KB)", [ Solution.Abstract; fix Ub_class.C_modify; fix Ub_class.C_replace ], true);
      (7, "replace-only", [ fix Ub_class.C_replace; fix Ub_class.C_replace ], false);
      (8, "deep modify (KB)", [ Solution.Abstract; fix Ub_class.C_modify; fix Ub_class.C_modify;
                                fix Ub_class.C_modify ], true);
      (9, "modify+abstract late (KB)", [ fix Ub_class.C_modify; Solution.Abstract; fix Ub_class.C_modify ], true);
      (10, "assert-only", [ fix Ub_class.C_assert; fix Ub_class.C_assert ], false) ]
  in
  let rows =
    List.map
      (fun (idx, name, steps, kb) ->
        let cfg = rustbrain_cfg ~kb ~feedback:false ~seed:1 () in
        let session = Pipeline.create_session cfg in
        let solution = { Solution.sname = name; steps; origin = "fig7" } in
        let r = Pipeline.repair_with_solution session case solution in
        [ string_of_int idx; name; (if kb then "yes" else "no");
          (if r.Report.passed then "pass" else "-");
          (if r.Report.semantic then "exec" else "-");
          Statkit.Table.secs r.Report.seconds;
          string_of_int r.Report.iterations ])
      groups
  in
  print_string
    (Statkit.Table.render
       ~header:[ "group"; "solution"; "KB"; "pass"; "exec"; "time(s)"; "iters" ]
       rows);
  Printf.printf
    "\n(paper: diverse solutions exist for the same UB; KB helps but costs 2-4x\n\
     overhead; the generic fixed plan wastes steps; some groups pass without\n\
     semantic acceptability)\n"

(* -- Figs. 8 & 9 (RQ2, accuracy) ------------------------------------- *)

let fig89 () =
  section "Figs. 8 & 9 — RQ2 accuracy: pass / exec rates by model and configuration";
  let cases = Dataset.Corpus.all in
  let cells =
    [ ("GPT-3.5 alone", run_alone ~model:Llm_sim.Profile.Gpt35 cases);
      ("GPT-3.5 + RustBrain", run_rustbrain ~model:Llm_sim.Profile.Gpt35 ~kb:false ~feedback:false cases);
      ("GPT-3.5 + RustBrain + KB", run_rustbrain ~model:Llm_sim.Profile.Gpt35 cases);
      ("GPT-4 alone", run_alone ~model:Llm_sim.Profile.Gpt4 cases);
      ("GPT-4 + RustBrain", run_rustbrain ~model:Llm_sim.Profile.Gpt4 ~kb:false ~feedback:false cases);
      ("GPT-4 + RustBrain + KB", run_rustbrain ~model:Llm_sim.Profile.Gpt4 cases);
      ("Claude-3.5 alone", run_alone ~model:Llm_sim.Profile.Claude35 cases);
      ("Claude-3.5 + RustBrain", run_rustbrain ~model:Llm_sim.Profile.Claude35 ~kb:false ~feedback:false cases);
      ("Claude-3.5 + RustBrain + KB", run_rustbrain ~model:Llm_sim.Profile.Claude35 cases) ]
  in
  let rows =
    List.map
      (fun (name, reports) ->
        let r = rates_of reports in
        [ name; Statkit.Table.pct r.pass; Statkit.Table.pct r.exec; string_of_int r.n ])
      cells
  in
  print_string
    (Statkit.Table.render ~header:[ "configuration"; "pass (Fig.8)"; "exec (Fig.9)"; "runs" ] rows);
  Printf.printf
    "\n(paper: GPT-4+RustBrain+KB averages 94.3%% pass / 80.4%% exec; RustBrain\n\
     lifts every model 17-35 points; GPT-3.5+RustBrain reaches GPT-4-alone level)\n"

(* -- Fig. 10 (GPT-O1 comparison) ------------------------------------- *)

let fig10 () =
  section "Fig. 10 — GPT-O1 alone vs RustBrain on a category subset";
  let subset_kinds =
    [ Miri.Diag.Validity; Miri.Diag.Alloc; Miri.Diag.Func_pointer; Miri.Diag.Panic_bug;
      Miri.Diag.Dangling_pointer ]
  in
  let rows =
    List.map
      (fun kind ->
        let cases = Dataset.Corpus.by_category kind in
        let o1 = rates_of (run_alone ~model:Llm_sim.Profile.Gpt_o1 cases) in
        let rb = rates_of (run_rustbrain cases) in
        [ Miri.Diag.kind_name kind;
          Statkit.Table.pct o1.pass; Statkit.Table.pct o1.exec;
          Statkit.Table.pct rb.pass; Statkit.Table.pct rb.exec ])
      subset_kinds
  in
  print_string
    (Statkit.Table.render
       ~header:[ "category"; "O1 pass"; "O1 exec"; "RustBrain pass"; "RustBrain exec" ]
       rows);
  (* the paper restricts O1 to a subset "due to O1's high cost": estimate the
     metered cost per repaired case for each standalone model *)
  let subset_cases = List.concat_map Dataset.Corpus.by_category subset_kinds in
  let cost_per_case model =
    let session =
      Baselines.Llm_only.create_session
        { Baselines.Llm_only.default_config with Baselines.Llm_only.model }
    in
    List.iter (fun c -> ignore (Baselines.Llm_only.repair session c)) subset_cases;
    Baselines.Llm_only.cost_usd session /. float_of_int (List.length subset_cases)
  in
  Printf.printf "\nestimated metered cost per standalone repair attempt:\n";
  List.iter
    (fun model ->
      Printf.printf "  %-12s $%.4f\n" (Llm_sim.Profile.name model) (cost_per_case model))
    Llm_sim.Profile.all;
  Printf.printf
    "(paper: despite O1's reasoning, RustBrain beats it, most visibly on the\n\
     uncommon panic category — +35.6%% exec there; O1 runs a subset only\n\
     because of its cost, which the estimate above reproduces)\n"

(* -- Fig. 11 (RQ3, temperature sensitivity) --------------------------- *)

let fig11 () =
  section "Fig. 11 — RQ3 sensitivity: temperature sweep with 95% Wilson CIs";
  let cases = Dataset.Corpus.all in
  let temps = [ 0.1; 0.3; 0.5; 0.7; 0.9 ] in
  let rows =
    List.map
      (fun temperature ->
        let reports = run_rustbrain ~temperature cases in
        let n = List.length reports in
        let passes = List.length (List.filter (fun (r : Rustbrain.Report.t) -> r.Rustbrain.Report.passed) reports) in
        let execs = List.length (List.filter (fun (r : Rustbrain.Report.t) -> r.Rustbrain.Report.semantic) reports) in
        [ Printf.sprintf "%.1f" temperature;
          Statkit.Table.pct (float_of_int passes /. float_of_int n);
          Statkit.Table.ci (Statkit.Stats.wilson_ci ~successes:passes n);
          Statkit.Table.pct (float_of_int execs /. float_of_int n);
          Statkit.Table.ci (Statkit.Stats.wilson_ci ~successes:execs n) ])
      temps
  in
  print_string
    (Statkit.Table.render
       ~header:[ "temperature"; "pass"; "pass 95% CI"; "exec"; "exec 95% CI" ]
       rows);
  Printf.printf
    "\n(paper: pass/exec peak around temperature 0.5; higher temperatures trade\n\
     semantic integrity for flexibility, lower ones lose repair diversity)\n"

(* -- Fig. 12 (RQ4 vs RustAssistant) ----------------------------------- *)

let fig12 () =
  section "Fig. 12 — RQ4: RustBrain vs the fixed-pipeline RustAssistant";
  let cases = Dataset.Corpus.all in
  let rb = rates_of (run_rustbrain cases) in
  let ra = rates_of (run_rust_assistant cases) in
  print_string
    (Statkit.Table.render
       ~header:[ "system"; "pass"; "exec" ]
       [ [ "RustAssistant (fixed pipeline)"; Statkit.Table.pct ra.pass; Statkit.Table.pct ra.exec ];
         [ "RustBrain"; Statkit.Table.pct rb.pass; Statkit.Table.pct rb.exec ];
         [ "delta";
           Printf.sprintf "+%.1f pts" (100.0 *. (rb.pass -. ra.pass));
           Printf.sprintf "+%.1f pts" (100.0 *. (rb.exec -. ra.exec)) ] ]);
  Printf.printf "\n(paper: RustBrain +33 pass points, +41 exec points over RustAssistant)\n"

(* -- Table I (RQ4 vs human experts) ----------------------------------- *)

let table1 () =
  section "Table I — repair time per category: RustBrain (no KB / KB) vs human";
  let mean_time (reports : Rustbrain.Report.t list) kind =
    let xs =
      List.filter_map
        (fun (r : Rustbrain.Report.t) ->
          if r.Rustbrain.Report.category = kind then Some r.Rustbrain.Report.seconds else None)
        reports
    in
    Statkit.Stats.mean xs
  in
  let cases = Dataset.Corpus.all in
  let no_kb = run_rustbrain ~kb:false ~feedback:false cases in
  let with_kb = run_rustbrain ~kb:true ~feedback:false cases in
  let with_fb = run_rustbrain ~kb:true ~feedback:true cases in
  let human = run_campaign (Exec.Backends.human_expert ()) cases in
  let rows =
    List.map
      (fun kind ->
        let t_nokb = mean_time no_kb kind in
        let t_kb = mean_time with_kb kind in
        let t_fb = mean_time with_fb kind in
        let t_h = mean_time human kind in
        [ Miri.Diag.kind_name kind;
          Statkit.Table.secs t_nokb; Statkit.Table.secs t_kb; Statkit.Table.secs t_fb;
          Statkit.Table.secs t_h;
          Printf.sprintf "%.1fx" (t_h /. max 0.001 t_nokb) ])
      Dataset.Corpus.categories
  in
  let avg sel = Statkit.Stats.mean (List.map (fun (r : Rustbrain.Report.t) -> r.Rustbrain.Report.seconds) sel) in
  let totals =
    [ "Average"; Statkit.Table.secs (avg no_kb); Statkit.Table.secs (avg with_kb);
      Statkit.Table.secs (avg with_fb); Statkit.Table.secs (avg human);
      Printf.sprintf "%.1fx" (avg human /. max 0.001 (avg no_kb)) ]
  in
  print_string
    (Statkit.Table.render
       ~header:[ "type"; "no_knowledge"; "knowledge"; "knowledge+feedback"; "human"; "speedup" ]
       (rows @ [ totals ]));
  let fb_hits = List.filter (fun (r : Rustbrain.Report.t) -> r.Rustbrain.Report.feedback_hit) with_fb in
  let fb_misses = List.filter (fun (r : Rustbrain.Report.t) -> not r.Rustbrain.Report.feedback_hit) with_fb in
  Printf.printf
    "\nfeedback shortcut (the paper's red sections): %d repairs recalled a similar\n\
     error and averaged %.1fs vs %.1fs without a recall\n"
    (List.length fb_hits) (avg fb_hits) (avg fb_misses);
  Printf.printf
    "(paper: 62.6s no-KB / 84.9s KB / 442s human, average speedup 7.4x; func.\n\
     calls show the largest gap, dangling pointers the smallest)\n"

(* -- Fig. 5 (rollback ablation) ---------------------------------------- *)

let fig5 () =
  section "Fig. 5 — error sequences with and without adaptive rollback";
  (* A hallucination stress-test, as in the paper's analysis: a weak model at
     a very hot temperature runs a long modify-heavy plan, so corrupted edits
     pile errors onto the program; the rollback policies then differ in how
     much of the accumulated damage survives. *)
  let policies =
    [ ("no rollback", Rustbrain.Slow_think.No_rollback);
      ("rollback to initial", Rustbrain.Slow_think.To_initial);
      ("adaptive rollback", Rustbrain.Slow_think.Adaptive) ]
  in
  let cases = List.filteri (fun i _ -> i mod 3 = 0) Dataset.Corpus.all in
  let plan =
    { Rustbrain.Solution.sname = "stress"; origin = "fig5";
      steps =
        [ Rustbrain.Solution.Fix Rustbrain.Ub_class.C_modify;
          Rustbrain.Solution.Fix Rustbrain.Ub_class.C_modify;
          Rustbrain.Solution.Fix Rustbrain.Ub_class.C_assert ] }
  in
  let run_policy rollback =
    List.concat_map
      (fun seed ->
        let session =
          Rustbrain.Pipeline.create_session
            { (rustbrain_cfg ~model:Llm_sim.Profile.Gpt35 ~temperature:1.3 ~kb:false
                 ~feedback:false ~rollback ~seed ())
              with Rustbrain.Pipeline.max_iters = 10 }
        in
        List.map
          (fun case -> Rustbrain.Pipeline.repair_with_solution session case plan)
          cases)
      seeds
  in
  let all_runs = List.map (fun (name, p) -> (name, run_policy p)) policies in
  let rows =
    List.map
      (fun (name, reports) ->
        let r = rates_of reports in
        let max_n =
          Statkit.Stats.mean
            (List.map
               (fun (rep : Rustbrain.Report.t) ->
                 float_of_int (List.fold_left max 0 rep.Rustbrain.Report.n_sequence))
               reports)
        in
        let rollbacks =
          List.fold_left (fun acc (rep : Rustbrain.Report.t) -> acc + rep.Rustbrain.Report.rollbacks) 0 reports
        in
        [ name; Statkit.Table.pct r.pass; Statkit.Table.pct r.exec;
          Printf.sprintf "%.1f" max_n; string_of_int rollbacks;
          Statkit.Table.secs r.mean_seconds ])
      all_runs
  in
  print_string
    (Statkit.Table.render
       ~header:[ "policy"; "pass"; "exec"; "mean peak errors"; "rollbacks"; "time(s)" ]
       rows);
  (* concrete fluctuating error sequences, as in the figure *)
  print_endline "\nexample N sequences (no rollback):";
  (match all_runs with
  | (_, reports) :: _ ->
    reports
    |> List.filter (fun (r : Rustbrain.Report.t) ->
           List.length r.Rustbrain.Report.n_sequence >= 4
           && List.fold_left max 0 r.Rustbrain.Report.n_sequence
              > List.hd r.Rustbrain.Report.n_sequence)
    |> List.filteri (fun i _ -> i < 4)
    |> List.iter (fun (r : Rustbrain.Report.t) ->
           Printf.printf "  %-28s {%s}\n" r.Rustbrain.Report.case_name
             (String.concat ", " (List.map string_of_int r.Rustbrain.Report.n_sequence)))
  | [] -> ());
  Printf.printf
    "(paper: error counts fluctuate under hallucination, e.g. N = {1, 3, 4, 6, 9};\n\
     adaptive rollback restarts each step from the best intermediate state)\n"

(* -- perf: scheduler + cache wall-clock, then Bechamel micro-benchmarks -- *)

let perf_campaign () =
  section "Campaign scheduler + verification cache (real wall-clock)";
  let cases = Dataset.Corpus.all in
  let seeds = List.init 12 (fun i -> i + 1) in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let nocache =
    { Rustbrain.Pipeline.default_config with Rustbrain.Pipeline.use_cache = false }
  in
  let leg ~domains ~cache =
    let runner =
      if cache then Exec.Backends.rustbrain ()
      else Exec.Backends.rustbrain ~config:nocache ()
    in
    time (fun () -> Exec.Scheduler.run_seeded ~domains runner ~seeds cases)
  in
  let (seq_off, _), t_seq_off = leg ~domains:1 ~cache:false in
  let (seq_on, stats1), t_seq_on = leg ~domains:1 ~cache:true in
  let (par_on, stats2), t_par_on = leg ~domains:2 ~cache:true in
  let (_, _), t_par_off = leg ~domains:2 ~cache:false in
  Printf.printf "campaign: rustbrain, %d case(s) x %d seed(s); %d core(s) available\n"
    (List.length cases) (List.length seeds)
    (Domain.recommended_domain_count ());
  Printf.printf "  1 domain,  cache off   %6.3fs wall\n" t_seq_off;
  Printf.printf "  1 domain,  cache on    %6.3fs wall  (hit-rate %.1f%%)\n" t_seq_on
    (100.0 *. Exec.Runner.hit_rate stats1);
  Printf.printf "  2 domains, cache off   %6.3fs wall\n" t_par_off;
  Printf.printf "  2 domains, cache on    %6.3fs wall  (hit-rate %.1f%%, %d hits, %d misses)\n"
    t_par_on
    (100.0 *. Exec.Runner.hit_rate stats2)
    stats2.Exec.Runner.cache_hits stats2.Exec.Runner.cache_misses;
  Printf.printf "  cache speedup, 1 domain   %.2fx\n" (t_seq_off /. t_seq_on);
  Printf.printf "  cache speedup, 2 domains  %.2fx\n" (t_par_off /. t_par_on);
  Printf.printf "  2 domains cached vs sequential uncached  %.2fx\n"
    (t_seq_off /. t_par_on);
  Printf.printf "  reports byte-identical: cache on==off %b, parallel==sequential %b\n"
    (seq_off = seq_on) (seq_on = par_on)

let perf () =
  section "Substrate micro-benchmarks (Bechamel, real time)";
  let case = Option.get (Dataset.Corpus.find "dr_flag_spin") in
  let src = case.Dataset.Case.buggy_src in
  let program = Dataset.Case.buggy case in
  let info =
    match Minirust.Typecheck.check program with
    | Ok info -> info
    | Error _ -> failwith "corpus case must typecheck"
  in
  let simple = Option.get (Dataset.Corpus.find "al_double_free") in
  let vec = Knowledge.Featvec.of_program program [] in
  let store = Knowledge.Store.create () in
  List.iteri
    (fun i (c : Dataset.Case.t) ->
      Knowledge.Store.add store (Knowledge.Featvec.of_program (Dataset.Case.buggy c) []) i)
    Dataset.Corpus.all;
  let open Bechamel in
  let tests =
    [ Test.make ~name:"parse" (Staged.stage (fun () -> Minirust.Parser.parse src));
      Test.make ~name:"typecheck"
        (Staged.stage (fun () -> Minirust.Typecheck.check program));
      Test.make ~name:"miri-run-threaded"
        (Staged.stage (fun () ->
             Miri.Machine.run
               ~config:{ Miri.Machine.default_config with Miri.Machine.inputs = [| 9L |] }
               program info));
      Test.make ~name:"ast-prune"
        (Staged.stage (fun () -> Knowledge.Prune.prune program []));
      Test.make ~name:"featvec+query"
        (Staged.stage (fun () -> Knowledge.Store.query store vec ~k:3));
      Test.make ~name:"full-repair"
        (Staged.stage (fun () ->
             let session =
               Rustbrain.Pipeline.create_session (rustbrain_cfg ~seed:1 ())
             in
             Rustbrain.Pipeline.repair session simple)) ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
        let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
        let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
        let name, est =
          Hashtbl.fold
            (fun name o acc ->
              match Analyze.OLS.estimates o with
              | Some (t :: _) -> (name, t)
              | _ -> acc)
            results ("?", 0.0)
        in
        [ name; Printf.sprintf "%.1f us" (est /. 1_000.0) ])
      tests
  in
  print_string (Statkit.Table.render ~header:[ "operation"; "time/run" ] rows);
  perf_campaign ()

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

(* -- resilience: fault-rate sweep (pass-rate degradation curve) -------- *)

let resilience () =
  section "Resilience — pass-rate degradation under injected LLM-API faults";
  let cases = List.filteri (fun i _ -> i mod 4 = 0) Dataset.Corpus.all in
  let fault_rates = [ 0.0; 0.05; 0.1; 0.2; 0.35; 0.5 ] in
  let rows =
    List.map
      (fun fault_rate ->
        let cfg =
          { (rustbrain_cfg ~seed:1 ()) with
            Rustbrain.Pipeline.fault_rate; max_retries = 3 }
        in
        let reports = run_campaign (Exec.Backends.rustbrain ~config:cfg ()) cases in
        let r = rates_of reports in
        let sum f =
          List.fold_left (fun a (rep : Rustbrain.Report.t) -> a + f rep) 0 reports
        in
        let count p =
          List.length (List.filter (fun (rep : Rustbrain.Report.t) -> p rep) reports)
        in
        [ Printf.sprintf "%.2f" fault_rate;
          Statkit.Table.pct r.pass; Statkit.Table.pct r.exec;
          string_of_int (sum (fun rep -> rep.Rustbrain.Report.faults));
          string_of_int (sum (fun rep -> rep.Rustbrain.Report.retries));
          string_of_int (sum (fun rep -> rep.Rustbrain.Report.breaker_trips));
          Printf.sprintf "%d/%d" (count (fun rep -> rep.Rustbrain.Report.degraded)) r.n;
          string_of_int (count (fun rep -> rep.Rustbrain.Report.gave_up));
          Statkit.Table.secs r.mean_seconds ])
      fault_rates
  in
  print_string
    (Statkit.Table.render
       ~header:
         [ "fault rate"; "pass"; "exec"; "faults"; "retries"; "trips";
           "degraded"; "gave-up"; "time(s)" ]
       rows);
  print_endline
    "(retries absorb low fault rates; at high rates the breaker trips and the\n\
     GPT-3.5 fallback keeps campaigns finishing, degraded rather than aborted)"

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
  let plain = render (rustbrain_cfg ~seed:1 ()) 1 in
  let knobbed =
    { (rustbrain_cfg ~seed:1 ()) with
      Rustbrain.Pipeline.fault_rate = 0.0; max_retries = 9;
      deadline = Some 1.0e9 }
  in
  if render knobbed 1 <> plain then fail "fault-rate 0 not byte-identical (1 domain)";
  if render knobbed 2 <> plain then fail "fault-rate 0 not byte-identical (2 domains)";
  Printf.printf "fault-rate 0 byte-identity: %d report(s) checked\n" (List.length plain);
  (* leg 2: a faulted campaign is same-seed deterministic across runs and
     domain counts, and actually injects faults *)
  let faulted = { (rustbrain_cfg ~seed:1 ()) with Rustbrain.Pipeline.fault_rate = 0.3 } in
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

(* -- interp: interpreter hot-path microbenchmarks ---------------------- *)

(* Every candidate repair is re-verified by running the program under
   lib/miri, so interpreter throughput bounds the whole system. The
   workloads are MiniRust *programs*, which makes the benchmark
   representation-agnostic: it times whatever `lib/miri` currently does,
   so numbers recorded before and after a memory-core change are directly
   comparable. `interp` writes machine-readable results to
   BENCH_interp.json, preserving the first recorded run as the baseline so
   the repo accumulates a perf trajectory. *)

(* Allocation-heavy: a tight loop of heap alloc / write / read / free plus
   per-iteration stack locals — stresses allocation setup cost and the
   typed encode/decode path through P_alloc pointers. *)
let interp_alloc_src ~blocks =
  Printf.sprintf
    {|
fn main() {
    let mut i = 0;
    let mut acc = 0;
    while i < %d {
        unsafe {
            let mut p = alloc(64, 8) as *mut i64;
            let mut j = 0;
            while j < 8 {
                *p.offset(j) = i + j;
                j = j + 1;
            }
            acc = acc + *p.offset(7);
            dealloc(p as *mut i8, 64, 8);
        }
        i = i + 1;
    }
    print(acc);
}
|}
    blocks

(* Pointer-chasing: a linked list threaded through integer-stored addresses,
   so every hop is a wildcard (exposed-provenance) access that must resolve
   its address to an allocation — the address-resolution hot path. *)
let interp_chase_src ~nodes ~rounds =
  Printf.sprintf
    {|
fn main() {
    unsafe {
        let mut head = 0;
        let mut i = 0;
        while i < %d {
            let mut p = alloc(16, 8) as *mut i64;
            *p = head;
            *p.offset(1) = i;
            head = p as i64;
            i = i + 1;
        }
        let mut round = 0;
        let mut acc = 0;
        while round < %d {
            let mut cur = head;
            while cur != 0 {
                let mut q = cur as *mut i64;
                acc = acc + *q.offset(1);
                cur = *q;
            }
            round = round + 1;
        }
        let mut cur = head;
        while cur != 0 {
            let mut q = cur as *mut i64;
            let mut next = *q;
            dealloc(q as *mut i8, 16, 8);
            cur = next;
        }
        print(acc);
    }
}
|}
    nodes rounds

(* Race-check: three workers hammer an atomic counter and their own private
   statics — every access runs the vector-clock race machinery, no race is
   ever reported, and the scheduler interleaves deterministically. *)
let interp_race_src ~iters =
  Printf.sprintf
    {|
static mut TOTAL: i64 = 0;
static mut W0: i64 = 0;
static mut W1: i64 = 0;
static mut W2: i64 = 0;

fn worker(p: *mut i64, k: i64) {
    unsafe {
        let mut i = 0;
        while i < k {
            atomic_add(&raw mut TOTAL, 1);
            *p = *p + 1;
            i = i + 1;
        }
    }
}

fn main() {
    unsafe {
        let h0 = spawn worker(&raw mut W0, %d);
        let h1 = spawn worker(&raw mut W1, %d);
        let h2 = spawn worker(&raw mut W2, %d);
        join(h0);
        join(h1);
        join(h2);
        print(atomic_load(&raw mut TOTAL) + W0 + W1 + W2);
    }
}
|}
    iters iters iters

(* Call/locals churn: many short calls each binding a handful of locals —
   stresses frame setup and local-variable lookup in the machine. *)
let interp_calls_src ~calls =
  Printf.sprintf
    {|
fn leaf(a: i64, b: i64) -> i64 {
    let mut x = a + b;
    let mut y = x * 2;
    let mut z = y - a;
    let mut w = z + x;
    return w - y;
}

fn main() {
    let mut i = 0;
    let mut acc = 0;
    while i < %d {
        let mut t = leaf(i, acc);
        acc = acc + t - t + 1;
        i = i + 1;
    }
    print(acc);
}
|}
    calls

let interp_workloads =
  [ ("alloc-heavy", interp_alloc_src ~blocks:3000);
    ("pointer-chase", interp_chase_src ~nodes:250 ~rounds:40);
    ("race-check", interp_race_src ~iters:1200);
    ("call-locals", interp_calls_src ~calls:4000) ]

let interp_run ?(seed = 1) ?(engine = Miri.Machine.default_config.Miri.Machine.engine)
    src =
  let program = Minirust.Parser.parse src in
  match Minirust.Typecheck.check program with
  | Error errs ->
    failwith ("interp workload does not typecheck: " ^ Minirust.Typecheck.errors_to_string errs)
  | Ok info ->
    let config =
      { Miri.Machine.default_config with Miri.Machine.seed; max_steps = 500_000_000;
        engine }
    in
    Miri.Machine.run ~config program info

let bench_file = "BENCH_interp.json"

let interp () =
  section "interp — interpreter hot-path microbenchmarks (real wall-clock)";
  (* Interleave the tree-walk and bytecode timings round by round (same warm
     state, same GC phase, like obs-overhead does) and keep the per-engine
     minimum: back-to-back blocks would flatter whichever engine ran second
     on a freshly warmed cache. The interpreter is deterministic, so min
     wall-clock is the least noisy estimator. *)
  let time f =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let measure src =
    let run_tree () = interp_run ~engine:Miri.Machine.Tree_walk src in
    let run_vm () = interp_run ~engine:Miri.Machine.Bytecode src in
    let rt = run_tree () in
    let rv = run_vm () in
    if rt.Miri.Machine.steps <> rv.Miri.Machine.steps then
      failwith
        (Printf.sprintf "engine step divergence: tree %d vs bytecode %d"
           rt.Miri.Machine.steps rv.Miri.Machine.steps);
    let tree = ref infinity and vm = ref infinity in
    for _ = 1 to 5 do
      tree := min !tree (time run_tree);
      vm := min !vm (time run_vm)
    done;
    (!vm, !tree, rv.Miri.Machine.steps)
  in
  let rows =
    List.map
      (fun (name, src) ->
        let t, tree_t, steps = measure src in
        (name, t, tree_t, steps))
      interp_workloads
  in
  (* preserve the first recorded run as the baseline forever: the committed
     file carries the before/after trajectory of the memory-core overhauls *)
  let open Rb_util.Json in
  let previous =
    if Sys.file_exists bench_file then
      let ic = open_in_bin bench_file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Result.to_option (parse s)
    else None
  in
  let baseline =
    match previous with
    | Some j -> (
      match member "baseline" j with
      | Some (Obj _ as b) -> Some b
      | _ -> member "current" j)
    | None -> None
  in
  (* the tree-walker numbers this file last recorded as "current" — pinned
     once, at the bytecode transition, so the tree->bytecode delta stays on
     record alongside the original pre-memory-overhaul baseline *)
  let previous_current =
    match previous with
    | Some j -> (
      match member "previous_current" j with
      | Some (Obj _ as p) -> Some p
      | _ -> ( match member "current" j with Some (Obj _ as p) -> Some p | _ -> None))
    | None -> None
  in
  let current =
    Obj
      (List.map
         (fun (name, t, _, steps) ->
           (name, Obj [ ("ms", Num (1000.0 *. t)); ("steps", Num (float_of_int steps)) ]))
         rows)
  in
  let tree_walk =
    Obj (List.map (fun (name, _, tree_t, _) -> (name, Obj [ ("ms", Num (1000.0 *. tree_t)) ])) rows)
  in
  let speedup_against key doc_opt =
    match doc_opt with
    | Some b ->
      let ratios =
        List.filter_map
          (fun (name, t, _, _) ->
            match Option.bind (member name b) (member "ms") with
            | Some (Num before_ms) when t > 0.0 ->
              Some (name, Num (before_ms /. (1000.0 *. t)))
            | _ -> None)
          rows
      in
      if ratios = [] then [] else [ (key, Obj ratios) ]
    | None -> []
  in
  let speedup = speedup_against "speedup" baseline in
  let speedup_prev = speedup_against "speedup_vs_previous" previous_current in
  let doc =
    Obj
      ((("campaign", Str "interp")
        :: (match baseline with Some b -> [ ("baseline", b) ] | None -> []))
      @ (match previous_current with Some p -> [ ("previous_current", p) ] | None -> [])
      @ [ ("current", current); ("tree_walk", tree_walk) ]
      @ speedup @ speedup_prev)
  in
  Rb_util.Fsfile.write_atomic bench_file (to_string doc ^ "\n");
  let fmt_ratio key name =
    let table = match key with "speedup" -> speedup | _ -> speedup_prev in
    match table with
    | [ (_, Obj ratios) ] -> (
      match List.assoc_opt name ratios with
      | Some (Num x) -> Printf.sprintf "%.2fx" x
      | _ -> "-")
    | _ -> "-"
  in
  print_string
    (Statkit.Table.render
       ~header:
         [ "workload"; "bytecode(ms)"; "tree-walk(ms)"; "steps"; "vs tree";
           "vs baseline" ]
       (List.map
          (fun (name, t, tree_t, steps) ->
            [ name; Printf.sprintf "%.1f" (1000.0 *. t);
              Printf.sprintf "%.1f" (1000.0 *. tree_t); string_of_int steps;
              (if t > 0.0 then Printf.sprintf "%.2fx" (tree_t /. t) else "-");
              fmt_ratio "speedup" name ])
          rows));
  (match speedup_prev with
  | [ (_, Obj ratios) ] ->
    let vals =
      List.filter_map (function _, Num x when x > 0.0 -> Some x | _ -> None) ratios
    in
    if vals <> [] then
      let g =
        exp (List.fold_left (fun a x -> a +. log x) 0.0 vals
             /. float_of_int (List.length vals))
      in
      Printf.printf "\ngeomean speedup vs previous current: %.2fx\n" g
  | _ -> ());
  Printf.printf "\nresults written to %s\n" bench_file

(* -- interp smoke gate (dune runtest alias interp-smoke) ---------------- *)

(* Tiny fixed-seed versions of the interp workloads plus one UB probe,
   asserting exact outcomes, print traces, step counts and diagnostic
   strings — a representation-change tripwire, not a timing test. The
   expected strings below were recorded from the pre-overhaul interpreter
   and are part of the diagnostics-stability contract. *)

let interp_smoke_expect =
  [ ("alloc-smoke", interp_alloc_src ~blocks:40,
     "finished", [ "1060" ], 1325);
    ("chase-smoke", interp_chase_src ~nodes:12 ~rounds:4,
     "finished", [ "264" ], 357);
    ("race-smoke", interp_race_src ~iters:50,
     "finished", [ "300" ], 620);
    ("calls-smoke", interp_calls_src ~calls:60,
     "finished", [ "60" ], 545) ]

let interp_smoke_ub_src =
  {|
fn main() {
    unsafe {
        let mut p = alloc(8, 8) as *mut i64;
        *p = 7;
        let mut a = p as i64;
        dealloc(p as *mut i8, 8, 8);
        let mut q = a as *mut i64;
        print(*q);
    }
}
|}

let interp_smoke_ub_expect =
  "UB(dangling pointer) in thread 0: use of deallocated memory (allocation 1 at address 4104)"

let interp_smoke () =
  section "Interp smoke — fixed-seed workload outcomes and diagnostics";
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL %s\n" s; incr failures) fmt in
  List.iter
    (fun (name, src, want_outcome, want_output, want_steps) ->
      let r = interp_run src in
      let outcome =
        match r.Miri.Machine.outcome with
        | Miri.Machine.Finished -> "finished"
        | Miri.Machine.Panicked m -> "panicked: " ^ m
        | Miri.Machine.Ub d -> Miri.Diag.to_string d
        | Miri.Machine.Step_limit -> "step limit"
        | Miri.Machine.Resource_limit m -> "resource limit: " ^ m
      in
      if outcome <> want_outcome then
        fail "%s: outcome %S (want %S)" name outcome want_outcome;
      if r.Miri.Machine.output <> want_output then
        fail "%s: output [%s] (want [%s])" name
          (String.concat "; " r.Miri.Machine.output)
          (String.concat "; " want_output);
      if r.Miri.Machine.diags <> [] then
        fail "%s: unexpected diagnostics" name;
      if r.Miri.Machine.steps <> want_steps then
        fail "%s: steps %d (want %d)" name r.Miri.Machine.steps want_steps;
      Printf.printf "%-14s %s output=[%s] steps=%d\n" name outcome
        (String.concat "; " r.Miri.Machine.output) r.Miri.Machine.steps)
    interp_smoke_expect;
  (let r = interp_run interp_smoke_ub_src in
   match r.Miri.Machine.outcome with
   | Miri.Machine.Ub d ->
     let got = Miri.Diag.to_string d in
     if got <> interp_smoke_ub_expect then
       fail "ub-smoke: diag %S (want %S)" got interp_smoke_ub_expect;
     Printf.printf "%-14s %s\n" "ub-smoke" got
   | _ -> fail "ub-smoke: expected a UB outcome");
  if !failures > 0 then exit 1;
  print_endline "interp smoke ok"

(* -- bytecode differential gate (dune runtest alias bytecode-smoke) ----- *)

(* Every corpus case (buggy and fixed, Stop_first and Collect, tracing on)
   plus the interp workloads across scheduler seeds, executed by both the
   bytecode VM and the tree-walker; every observable — outcome, print
   trace, diagnostic strings, borrow/allocation events, step and error
   counts — must be byte-identical. This is the differential contract that
   lets the default engine be the VM while the golden corpus stays the
   single source of expected diagnostics. *)

let bytecode_smoke () =
  section "Bytecode smoke — VM vs tree-walker differential gate";
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL %s\n" s; incr failures) fmt in
  let render (r : Miri.Machine.run_result) =
    let b = Buffer.create 256 in
    let outcome =
      match r.Miri.Machine.outcome with
      | Miri.Machine.Finished -> "finished"
      | Miri.Machine.Panicked m -> "panicked: " ^ m
      | Miri.Machine.Ub d -> "ub: " ^ Miri.Diag.to_string d
      | Miri.Machine.Step_limit -> "step-limit"
      | Miri.Machine.Resource_limit m -> "resource-limit: " ^ m
    in
    Buffer.add_string b
      (Printf.sprintf "outcome: %s\nsteps: %d errors: %d\n" outcome
         r.Miri.Machine.steps r.Miri.Machine.error_count);
    List.iter (fun s -> Buffer.add_string b ("out: " ^ s ^ "\n")) r.Miri.Machine.output;
    List.iter
      (fun d -> Buffer.add_string b ("diag: " ^ Miri.Diag.to_string d ^ "\n"))
      r.Miri.Machine.diags;
    List.iter (fun e -> Buffer.add_string b ("event: " ^ e ^ "\n")) r.Miri.Machine.events;
    Buffer.contents b
  in
  let first_divergence want got =
    let wl = String.split_on_char '\n' want and gl = String.split_on_char '\n' got in
    let rec go i = function
      | w :: ws, g :: gs -> if w = g then go (i + 1) (ws, gs) else (i, w, g)
      | w :: _, [] -> (i, w, "<end>")
      | [], g :: _ -> (i, "<end>", g)
      | [], [] -> (i, "", "")
    in
    go 1 (wl, gl)
  in
  let checked = ref 0 in
  let check ?(max_steps = Miri.Machine.default_config.Miri.Machine.max_steps) label
      src ~mode ~seed ~inputs ~trace =
    let program = Minirust.Parser.parse src in
    match Minirust.Typecheck.check program with
    | Error _ -> ()  (* differential gate only covers well-typed programs *)
    | Ok info ->
      let config engine =
        { Miri.Machine.default_config with
          Miri.Machine.mode; seed; inputs; trace; max_steps; engine }
      in
      let tree =
        render (Miri.Machine.run ~config:(config Miri.Machine.Tree_walk) program info)
      in
      let vm =
        render (Miri.Machine.run ~config:(config Miri.Machine.Bytecode) program info)
      in
      incr checked;
      if tree <> vm then begin
        let line, w, g = first_divergence tree vm in
        fail "%s: engines diverge at line %d\n  tree:     %s\n  bytecode: %s" label
          line w g
      end
  in
  List.iter
    (fun (c : Dataset.Case.t) ->
      let inputs = match c.Dataset.Case.probes with p :: _ -> p | [] -> [||] in
      List.iter
        (fun (variant, src) ->
          List.iter
            (fun (mode_name, mode) ->
              check
                (Printf.sprintf "%s/%s/%s" c.Dataset.Case.name variant mode_name)
                src ~mode ~seed:1 ~inputs ~trace:true)
            [ ("stop-first", Miri.Machine.Stop_first);
              ("collect-5", Miri.Machine.Collect 5) ])
        [ ("buggy", c.Dataset.Case.buggy_src); ("fixed", c.Dataset.Case.fixed_src) ])
    Dataset.Corpus.all;
  List.iter
    (fun (name, src) ->
      List.iter
        (fun seed ->
          check ~max_steps:500_000_000
            (Printf.sprintf "%s/seed-%d" name seed)
            src ~mode:Miri.Machine.Stop_first ~seed ~inputs:[||] ~trace:false)
        [ 1; 2; 7 ])
    (("ub-probe", interp_smoke_ub_src) :: interp_workloads);
  Printf.printf "compared %d program runs across both engines\n" !checked;
  if !failures > 0 then exit 1;
  print_endline "bytecode smoke ok"

(* -- trace smoke gate (dune runtest alias trace-smoke) ------------------ *)

(* Determinism contract of the observability layer: a seeded campaign's
   JSONL trace is byte-identical run to run (simulated timestamps only,
   per-job buffers folded in job order), and turning tracing on changes
   no report. Exercised at domains=2 so the per-domain buffer fold and the
   cross-session memo suppression are actually in play. *)
let trace_smoke () =
  section "Trace smoke — deterministic campaign traces; tracing invisible to reports";
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL %s\n" s; incr failures) fmt in
  let cases = List.filteri (fun i _ -> i mod 8 = 0) Dataset.Corpus.all in
  let runner = Exec.Backends.rustbrain () in
  let traced () =
    let tmp = Filename.temp_file "rb-trace" ".jsonl" in
    let sink = Obs.Trace.file tmp in
    let reports, _ =
      Exec.Scheduler.run_seeded ~domains:2 ~trace:sink runner ~seeds:[ 1; 2 ]
        cases
    in
    Obs.Trace.close sink;
    let contents = Option.value ~default:"" (Rb_util.Fsfile.read tmp) in
    Sys.remove tmp;
    (contents, List.map Rustbrain.Report.to_json reports)
  in
  let t1, r1 = traced () in
  let t2, r2 = traced () in
  if t1 = "" then fail "trace file empty";
  if t1 <> t2 then fail "trace not byte-identical across identical seeded runs";
  if r1 <> r2 then fail "reports differ between traced runs";
  let plain, _ =
    Exec.Scheduler.run_seeded ~domains:2 runner ~seeds:[ 1; 2 ] cases
  in
  if List.map Rustbrain.Report.to_json plain <> r1 then
    fail "tracing changed the reports";
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' t1) in
  let parsed =
    List.filter_map
      (fun l ->
        match Obs.Trace.of_jsonl l with
        | Ok r -> Some r
        | Error e ->
          fail "unparseable trace line (%s): %s" e l;
          None)
      lines
  in
  List.iter
    (fun want ->
      if
        not
          (List.exists
             (fun (r : Obs.Trace.record) -> r.Obs.Trace.name = want)
             parsed)
      then fail "no %S record in the trace" want)
    [ "campaign-start"; "job-start"; "parse"; "typecheck"; "interpret";
      "fast-think"; "slow-think"; "re-verify"; "llm-call"; "interp";
      "repair"; "job-end"; "scheduler" ];
  if !failures > 0 then exit 1;
  Printf.printf "trace smoke ok (%d records, %d cases x 2 seeds)\n"
    (List.length parsed) (List.length cases)

(* -- obs-overhead (BENCH_obs.json, committed before/after) -------------- *)

let obs_bench_file = "BENCH_obs.json"

(* Wall-clock cost of the observability layer on the interp workloads.
   "off" is the shipping configuration — no ambient sink, every in_span /
   note gate resolving to a DLS read and a None match — and is held
   against the PR-4 interpreter numbers (seeded from BENCH_interp.json's
   current run the first time this is recorded; target < 2% regression).
   "live" attaches an in-memory ring sink to bound the worst case. *)
let obs_overhead () =
  section "obs-overhead — observability cost on the interp workloads (real wall-clock)";
  (* Interleave the off/live timings round by round (same warm state, same
     GC phase) and keep the per-variant minimum — min-of-n is robust to the
     one-sided noise of a shared container. *)
  let time f =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let rows =
    List.map
      (fun (name, src) ->
        let run_off () = interp_run src in
        let run_live () =
          let sink, _ = Obs.Trace.memory ~ring:4096 () in
          Obs.Trace.with_ambient sink (fun () -> interp_run src)
        in
        ignore (run_off ());
        ignore (run_live ());
        let off = ref infinity and live = ref infinity in
        for _ = 1 to 7 do
          off := min !off (time run_off);
          live := min !live (time run_live)
        done;
        (name, !off, !live))
      interp_workloads
  in
  let open Rb_util.Json in
  let read_json path =
    if Sys.file_exists path then
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Result.to_option (parse s)
    else None
  in
  let baseline =
    match read_json obs_bench_file with
    | Some j -> (
      match member "baseline" j with
      | Some (Obj _ as b) -> Some b
      | _ -> member "current" j)
    | None -> (
      (* first recording: the pre-obs interpreter numbers are the baseline *)
      match Option.bind (read_json bench_file) (member "current") with
      | Some (Obj entries) ->
        Some
          (Obj
             (List.filter_map
                (fun (name, v) ->
                  Option.map
                    (fun ms -> (name, Obj [ ("off_ms", ms) ]))
                    (member "ms" v))
                entries))
      | _ -> None)
  in
  let current =
    Obj
      (List.map
         (fun (name, off, live) ->
           ( name,
             Obj
               [ ("off_ms", Num (1000.0 *. off));
                 ("live_ms", Num (1000.0 *. live));
                 ( "live_overhead_pct",
                   Num
                     (if off > 0.0 then 100.0 *. (live -. off) /. off else 0.0)
                 ) ] ))
         rows)
  in
  let regression_of name off =
    match
      Option.bind baseline (fun b ->
          Option.bind (member name b) (member "off_ms"))
    with
    | Some (Num before_ms) when before_ms > 0.0 ->
      Some (100.0 *. (((1000.0 *. off) -. before_ms) /. before_ms))
    | _ -> None
  in
  let regression =
    let rs =
      List.filter_map
        (fun (name, off, _) ->
          Option.map (fun p -> (name, Num p)) (regression_of name off))
        rows
    in
    if rs = [] then [] else [ ("off_regression_pct", Obj rs) ]
  in
  let doc =
    Obj
      ((("campaign", Str "obs-overhead")
        :: (match baseline with Some b -> [ ("baseline", b) ] | None -> []))
      @ [ ("current", current) ]
      @ regression)
  in
  Rb_util.Fsfile.write_atomic obs_bench_file (to_string doc ^ "\n");
  print_string
    (Statkit.Table.render
       ~header:
         [ "workload"; "off(ms)"; "live(ms)"; "live overhead"; "off vs baseline" ]
       (List.map
          (fun (name, off, live) ->
            [ name;
              Printf.sprintf "%.1f" (1000.0 *. off);
              Printf.sprintf "%.1f" (1000.0 *. live);
              Printf.sprintf "%+.1f%%"
                (if off > 0.0 then 100.0 *. (live -. off) /. off else 0.0);
              (match regression_of name off with
              | Some p -> Printf.sprintf "%+.1f%%" p
              | None -> "-") ])
          rows));
  Printf.printf "\nresults written to %s (target: off within 2%% of baseline)\n"
    obs_bench_file

(* -- component ablation (DESIGN.md's starred design choices) ----------- *)

let ablate () =
  section "Ablation — removing one RustBrain component at a time (GPT-4, full corpus)";
  let cases = Dataset.Corpus.all in
  let base seed = rustbrain_cfg ~seed () in
  let variants =
    [ ("full RustBrain", fun seed -> base seed);
      ("- knowledge base", fun seed -> { (base seed) with Rustbrain.Pipeline.use_kb = false });
      ("- feedback (S3)", fun seed -> { (base seed) with Rustbrain.Pipeline.use_feedback = false });
      ("- adaptive rollback",
       fun seed -> { (base seed) with Rustbrain.Pipeline.rollback = Rustbrain.Slow_think.No_rollback });
      ("- abstract reasoning",
       fun seed -> { (base seed) with Rustbrain.Pipeline.enable_abstract = false });
      ("- replace agent", fun seed -> { (base seed) with Rustbrain.Pipeline.enable_replace = false });
      ("- assert agent", fun seed -> { (base seed) with Rustbrain.Pipeline.enable_assert = false });
      ("- modify agent", fun seed -> { (base seed) with Rustbrain.Pipeline.enable_modify = false });
      ("single solution only",
       fun seed -> { (base seed) with Rustbrain.Pipeline.max_solutions = 1 });
      ("2 iterations only", fun seed -> { (base seed) with Rustbrain.Pipeline.max_iters = 2 }) ]
  in
  let rows =
    List.map
      (fun (name, cfg_of) ->
        let reports = run_campaign (Exec.Backends.rustbrain ~config:(cfg_of 1) ()) cases in
        let r = rates_of reports in
        let iters =
          Statkit.Stats.mean
            (List.map (fun (rep : Rustbrain.Report.t) -> float_of_int rep.Rustbrain.Report.iterations) reports)
        in
        [ name; Statkit.Table.pct r.pass; Statkit.Table.pct r.exec;
          Statkit.Table.secs r.mean_seconds; Printf.sprintf "%.1f" iters ])
      variants
  in
  print_string
    (Statkit.Table.render
       ~header:[ "variant"; "pass"; "exec"; "time(s)"; "mean iters" ]
       rows)

(* -- serve: campaign-as-a-service gates --------------------------------- *)

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
   argv mode, dispatched in the driver below) so the gates can kill -9 a
   real server process mid-campaign — the crash the durable admission
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
  Option.iter (failf "%s") (leak_report ());
  if !failures > 0 then exit 1;
  Printf.printf
    "serve smoke ok: a repeated-case job rejected before admission, %d \
     case-repairs accepted durably, killed -9 mid-campaign with its worker \
     dying alongside, resumed byte-identical\n"
    total

(* -- chaos-serve gate (dune runtest alias chaos-serve) ------------------ *)

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

let results_bytes ~state id =
  let store = Serve.Store.open_dir ~scrub:false ~dir:state () in
  Rb_util.Fsfile.read (Serve.Store.results_path store id)

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

(* -- knn: retrieval-kernel latency (BENCH_knn.json) -------------------- *)

let knn_bench_file = "BENCH_knn.json"

(* Synthetic Featvec-shaped vectors: a sparse, unit-normalized hashed block
   plus a dominant 2.0 one-hot category component, mirroring
   Featvec.of_sketch — so the bucketed index sees the geometry it was built
   for without paying sketch extraction for 10^6 programs. *)
let knn_synth ~dim ~hash_dim rng cat =
  let v = Array.make dim 0.0 in
  for _ = 1 to 8 do
    v.(Rb_util.Rng.int rng hash_dim) <- 0.2 +. (1.4 *. Rb_util.Rng.float rng)
  done;
  let n = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 v) in
  if n > 0.0 then
    for i = 0 to hash_dim - 1 do
      v.(i) <- v.(i) /. n
    done;
  v.(hash_dim + cat) <- 2.0;
  v

let knn () =
  section "knn — retrieval kernel: exact scan vs bucketed index (real wall-clock)";
  let dim = Knowledge.Featvec.dim in
  let ncat = List.length Miri.Diag.all_kinds in
  let hash_dim = dim - ncat in
  let k = Knowledge.Kb.max_hits in
  let queries =
    let rng = Rb_util.Rng.create 0xbeef in
    List.init 20 (fun i -> knn_synth ~dim ~hash_dim rng (i mod ncat))
  in
  let nq = List.length queries in
  let time f =
    Gc.minor ();
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let rows =
    List.map
      (fun n ->
        let t = Knowledge.Knn.create ~dim in
        let rng = Rb_util.Rng.create (0x5eed + n) in
        for i = 0 to n - 1 do
          ignore (Knowledge.Knn.add t (knn_synth ~dim ~hash_dim rng (i mod ncat)))
        done;
        (* agreement before timing (this also builds the index once, so the
           timed loop measures queries, not construction) *)
        let scanned = ref 0 in
        List.iter
          (fun q ->
            let ex = Knowledge.Knn.search_exact t q ~k in
            let ix = Knowledge.Knn.search_indexed t q ~k in
            if ex.Knowledge.Knn.hits <> ix.Knowledge.Knn.hits then begin
              Printf.eprintf
                "FAIL knn: indexed result diverges from the exact scan at n=%d\n" n;
              exit 1
            end;
            scanned := !scanned + ix.Knowledge.Knn.scanned)
          queries;
        let per_query f =
          let best = ref infinity in
          for _ = 1 to 3 do
            best :=
              min !best (time (fun () -> List.iter (fun q -> ignore (f q)) queries))
          done;
          1000.0 *. !best /. float_of_int nq
        in
        let exact_seq =
          per_query (fun q -> Knowledge.Knn.search_exact ~domains:1 t q ~k)
        in
        let exact_par =
          per_query (fun q -> Knowledge.Knn.search_exact ~domains:4 t q ~k)
        in
        let indexed = per_query (fun q -> Knowledge.Knn.search_indexed t q ~k) in
        let frac = float_of_int !scanned /. float_of_int (n * nq) in
        let strategy =
          if n >= Knowledge.Knn.indexed_threshold then "indexed" else "exact"
        in
        Printf.printf
          "n=%-9d exact-seq %9.3f ms  exact-par %9.3f ms  indexed %9.3f ms  scanned %5.1f%%  search->%s\n%!"
          n exact_seq exact_par indexed (100.0 *. frac) strategy;
        if n >= Knowledge.Knn.indexed_threshold && indexed >= exact_seq then begin
          Printf.eprintf
            "FAIL knn: indexed (%.3f ms) does not beat the exact scan (%.3f ms) at n=%d\n"
            indexed exact_seq n;
          exit 1
        end;
        (n, exact_seq, exact_par, indexed, frac, strategy))
      [ 1_000; 100_000; 1_000_000 ]
  in
  (* the end-to-end payoff: retrieval hints steering repair campaigns *)
  let cases = Dataset.Corpus.all in
  let kb_on = rates_of (run_rustbrain ~feedback:false cases) in
  let kb_off = rates_of (run_rustbrain ~kb:false ~feedback:false cases) in
  Printf.printf
    "fast-path lift (full corpus, %d reports): exec %s (KB) vs %s (no KB), pass %s vs %s\n"
    kb_on.n (Statkit.Table.pct kb_on.exec) (Statkit.Table.pct kb_off.exec)
    (Statkit.Table.pct kb_on.pass) (Statkit.Table.pct kb_off.pass);
  let open Rb_util.Json in
  let doc =
    Obj
      [ ("campaign", Str "knn");
        ("queries", Num (float_of_int nq));
        ("k", Num (float_of_int k));
        ("dim", Num (float_of_int dim));
        ( "sizes",
          List
            (List.map
               (fun (n, es, ep, ix, frac, strategy) ->
                 Obj
                   [ ("n", Num (float_of_int n));
                     ("exact_seq_ms", Num es);
                     ("exact_par_ms", Num ep);
                     ("indexed_ms", Num ix);
                     ("indexed_scanned_fraction", Num frac);
                     ("agreement", Bool true);
                     ("search_strategy", Str strategy) ])
               rows) );
        ( "fast_path",
          Obj
            [ ("kb_exec", Num kb_on.exec); ("kb_pass", Num kb_on.pass);
              ("nokb_exec", Num kb_off.exec); ("nokb_pass", Num kb_off.pass) ] ) ]
  in
  Rb_util.Fsfile.write_atomic knn_bench_file (to_string doc ^ "\n");
  Printf.printf "-> %s\n" knn_bench_file

(* -- kb-smoke gate (dune runtest alias kb-smoke) ------------------------ *)

(* kb-smoke helper, run as a fresh process: one 1-seed job over four cases
   against the writable KB slice [slice], journaled under [journal].
   [mode] is "kill2" (fresh, killed after 2 records), "resume" or "fresh".
   Writes "replayed R recomputed C", then each report's JSON, to [out]. *)
let kb_job_child ~slice ~journal ~mode ~out =
  let cases = List.filteri (fun i _ -> i mod 27 = 0 && i < 108) Dataset.Corpus.all in
  let runner =
    Exec.Backends.rustbrain
      ~config:{ (rustbrain_cfg ~seed:1 ()) with Rustbrain.Pipeline.kb_dir = Some slice }
      ()
  in
  let kill_after, mode =
    match mode with
    | "kill2" -> (Some 2, Exec.Checkpoint.Fresh)
    | "resume" -> (None, Exec.Checkpoint.Resume)
    | _ -> (None, Exec.Checkpoint.Fresh)
  in
  let o =
    Exec.Checkpoint.run ~domains:1 ?kill_after ~dir:journal ~mode
      (Exec.Scheduler.seeded_jobs runner ~seeds:[ 1 ] cases)
  in
  Rb_util.Fsfile.write_atomic out
    (String.concat "\n"
       (Printf.sprintf "replayed %d recomputed %d" o.Exec.Checkpoint.replayed
          o.Exec.Checkpoint.recomputed
       :: List.map Rustbrain.Report.to_json
            (List.concat_map
               (fun r -> r.Exec.Scheduler.reports)
               o.Exec.Checkpoint.results)))

let kb_smoke () =
  section "KB smoke — persistent-store determinism, crash healing, compaction";
  let failures = ref 0 in
  let failf fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "FAIL kb: %s\n" s;
        incr failures)
      fmt
  in
  let fresh_dir tag =
    let d = Filename.temp_file (Printf.sprintf "rb-kb-%s" tag) "" in
    Sys.remove d;
    d
  in
  let payload i = Rb_util.Json.Obj [ ("i", Rb_util.Json.Num (float_of_int i)) ] in
  let vec4 i = [| float_of_int i; 0.5; 0.0; 1.0 |] in

  (* 1+2: a campaign against a fresh persistent store must be byte-identical
     to the in-memory one (a fresh store holds exactly the default seeds),
     and sequential vs domain-parallel scheduling must not matter — the
     process-frozen snapshot makes every session see the same KB whatever
     order sessions are created in. *)
  let dir = fresh_dir "campaign" in
  let cases = List.filteri (fun i _ -> i mod 8 = 0) Dataset.Corpus.all in
  let runner_mem = Exec.Backends.rustbrain ~config:(rustbrain_cfg ~seed:1 ()) () in
  let runner_kb =
    Exec.Backends.rustbrain
      ~config:
        { (rustbrain_cfg ~seed:1 ()) with Rustbrain.Pipeline.kb_dir = Some dir }
      ()
  in
  let mem, _ = Exec.Scheduler.run_seeded ~domains:1 runner_mem ~seeds:[ 1; 2 ] cases in
  let per_seq, _ =
    Exec.Scheduler.run_seeded ~domains:1 runner_kb ~seeds:[ 1; 2 ] cases
  in
  let per_par, _ =
    Exec.Scheduler.run_seeded ~domains:2 runner_kb ~seeds:[ 1; 2 ] cases
  in
  if mem <> per_seq then
    failf "fresh persistent campaign diverges from the in-memory one";
  if per_seq <> per_par then
    failf "persistent campaign: parallel reports differ from sequential";
  Printf.printf
    "campaign identity: in-memory==persistent %b, parallel==sequential %b\n"
    (mem = per_seq) (per_seq = per_par);

  (* learned entries are on disk for the next process, while this process's
     snapshot stays frozen at the seed set *)
  (match Knowledge.Segment.load dir with
  | Error e -> failf "post-campaign load: %s" e
  | Ok r ->
    let seed_count = List.length Miri.Diag.all_kinds in
    let on_disk = List.length r.Knowledge.Segment.records in
    if on_disk <= seed_count then
      failf "campaign learned nothing durable (%d records on disk)" on_disk;
    (match
       Knowledge.Kb.open_dir ~dir ~clock:(Rb_util.Simclock.create ()) ()
     with
    | Error e -> failf "reopen: %s" e
    | Ok kb ->
      let snap = Knowledge.Kb.size kb in
      if snap <> seed_count then
        failf "snapshot not frozen: reopen in-process sees %d entries" snap;
      Printf.printf
        "durable learning: %d records on disk, frozen in-process snapshot %d\n"
        on_disk snap));

  (* 3: kill -9 a child mid-append, then heal. Appends are framed + fsynced,
     so at worst the final frame is torn; fsck truncates it and every load
     after that agrees. The child is a fresh process image (the campaign
     above created domains, after which OCaml 5 refuses to fork). *)
  let dir2 = fresh_dir "kill9" in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "kb-append-child"; dir2 |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Unix.sleepf 0.3;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (match Knowledge.Segment.fsck ~fix:true ~expect:(4, 1) dir2 with
  | Error e -> failf "fsck after kill -9: %s" e
  | Ok r ->
    if r.Knowledge.Segment.records = [] then
      failf "kill -9 store recovered no records";
    let a = Knowledge.Segment.load ~expect:(4, 1) dir2 in
    let b = Knowledge.Segment.load ~expect:(4, 1) dir2 in
    if a <> b then failf "load after healing is not deterministic";
    (* the dead writer's lock must not outlive it: reopening appends fine *)
    (match Knowledge.Segment.open_writer ~expect:(4, 1) ~dir:dir2 () with
    | Error e -> failf "reopen after kill -9: %s" e
    | Ok (w, rep) ->
      let n0 = List.length rep.Knowledge.Segment.records in
      (match Knowledge.Segment.append w ~vec:(vec4 n0) ~payload:(payload n0) with
      | Ok id when id = n0 -> ()
      | Ok id -> failf "ids not dense after recovery: got %d, wanted %d" id n0
      | Error e -> failf "append after recovery: %s" e);
      Knowledge.Segment.close w;
      Printf.printf
        "kill -9 recovery: %d records survive, healed %d tail byte(s), ids dense\n"
        n0 r.Knowledge.Segment.healed_tail_bytes));

  (* 4: a deterministically torn tail heals to the last whole frame. Work on
     a copy so the original writer's view stays untouched. *)
  let dir3 = fresh_dir "torn" in
  (match Knowledge.Segment.open_writer ~expect:(4, 1) ~dir:dir3 () with
  | Error e -> failf "torn: open_writer: %s" e
  | Ok (w, _) ->
    for i = 0 to 9 do
      ignore (Knowledge.Segment.append w ~vec:(vec4 i) ~payload:(payload i))
    done;
    let copy = fresh_dir "torn-copy" in
    if
      Sys.command
        (Printf.sprintf "cp -r %s %s" (Filename.quote dir3) (Filename.quote copy))
      <> 0
    then failf "torn: cp failed"
    else begin
      let tail = Filename.concat copy "tail.log" in
      let size = (Unix.stat tail).Unix.st_size in
      Unix.truncate tail (size - 7);
      match Knowledge.Segment.fsck ~fix:true ~expect:(4, 1) copy with
      | Error e -> failf "torn: fsck: %s" e
      | Ok r ->
        if List.length r.Knowledge.Segment.records <> 9 then
          failf "torn tail healed to %d records, wanted 9"
            (List.length r.Knowledge.Segment.records);
        if r.Knowledge.Segment.healed_tail_bytes <= 0 then
          failf "torn tail reported no healed bytes";
        Printf.printf "torn tail: healed %d byte(s), 9/10 records survive\n"
          r.Knowledge.Segment.healed_tail_bytes
    end;
    Knowledge.Segment.close w);

  (* 5: sealing + compaction are load-equivalent, and duplicate ids (the
     compaction-crash window: merged segment written, inputs not yet
     deleted) resolve first-wins at load *)
  let dir4 = fresh_dir "compact" in
  (match
     Knowledge.Segment.open_writer ~expect:(4, 1) ~seal_every:4 ~compact_at:3
       ~dir:dir4 ()
   with
  | Error e -> failf "compact: open_writer: %s" e
  | Ok (w, _) ->
    for i = 0 to 25 do
      ignore (Knowledge.Segment.append w ~vec:(vec4 i) ~payload:(payload i))
    done;
    let before = Knowledge.Segment.records w in
    Knowledge.Segment.compact w;
    if Knowledge.Segment.records w <> before then
      failf "compaction changed the writer's record set";
    Knowledge.Segment.close w;
    (match Knowledge.Segment.load ~expect:(4, 1) dir4 with
    | Error e -> failf "compact: load: %s" e
    | Ok r ->
      if r.Knowledge.Segment.records <> before then
        failf "compaction is not load-equivalent";
      (* duplicate the surviving segment under a later name *)
      let segs =
        Sys.readdir dir4 |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".seg")
      in
      (match segs with
      | seg :: _ ->
        if
          Sys.command
            (Printf.sprintf "cp %s %s"
               (Filename.quote (Filename.concat dir4 seg))
               (Filename.quote (Filename.concat dir4 "seg-00009999.seg")))
          <> 0
        then failf "compact: cp failed";
        (match Knowledge.Segment.load ~expect:(4, 1) dir4 with
        | Error e -> failf "compact: load with duplicates: %s" e
        | Ok r2 ->
          if r2.Knowledge.Segment.records <> before then
            failf "duplicate ids were not resolved first-wins";
          if r2.Knowledge.Segment.duplicates = 0 then
            failf "duplicate segment reported no duplicates";
          Printf.printf
            "compaction: load-equivalent, %d duplicate(s) resolved first-wins\n"
            r2.Knowledge.Segment.duplicates)
      | [] -> failf "compaction left no segment")));

  (* 6: retrieval strategies agree bit-for-bit on Featvec-shaped data —
     exact==indexed hits, parallel==sequential scores *)
  let dim = Knowledge.Featvec.dim in
  let ncat = List.length Miri.Diag.all_kinds in
  let hash_dim = dim - ncat in
  let t = Knowledge.Knn.create ~dim in
  let rng = Rb_util.Rng.create 0xfeed in
  for i = 0 to 8191 do
    ignore (Knowledge.Knn.add t (knn_synth ~dim ~hash_dim rng (i mod ncat)))
  done;
  let qs = List.init 30 (fun i -> knn_synth ~dim ~hash_dim rng (i mod ncat)) in
  List.iter
    (fun q ->
      let ex = Knowledge.Knn.search_exact ~domains:1 t q ~k:8 in
      let ix = Knowledge.Knn.search_indexed t q ~k:8 in
      if ex.Knowledge.Knn.hits <> ix.Knowledge.Knn.hits then
        failf "indexed hits diverge from the exact scan";
      let s1 = Knowledge.Knn.scores ~domains:1 t q in
      let s4 = Knowledge.Knn.scores ~domains:4 t q in
      if s1 <> s4 then failf "parallel scores are not bit-identical")
    qs;
  Printf.printf
    "retrieval agreement: exact==indexed and 4-domain==sequential over %d queries\n"
    (List.length qs);

  (* 7: resume against a persistent KB. Every run is a fresh process: in
     one process the registry would keep serving the rows it read first.
     A 1-seed, 4-case job on a writable slice is killed after 2 journaled
     records, then (a) rows appended past the slice's high-water id leave
     the snapshot usable: 2 replayed, reports byte-identical to an
     uninterrupted run; (b) the rows below the mark replaced (same ids,
     other content) make it unusable: nothing replayed, and the reports
     are a fresh run's on the replaced rows, never a mix of the two;
     (c) as (b), with the last record torn so the snapshot is out of step
     and never consulted: the recompute's re-run of the surviving record
     disagrees with it, so again nothing more is journaled and no later
     resume mixes the two slices *)
  let kb_job ~slice ~journal mode =
    let out = fresh_dir "job-out" in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "kb-job-child"; slice; journal; mode; out |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failf "kb-job-child %s died" mode);
    let lines =
      String.split_on_char '\n' (Option.value ~default:"" (Rb_util.Fsfile.read out))
    in
    Rb_util.Fsfile.remove_if_exists out;
    match lines with head :: reports -> (head, reports) | [] -> ("", [])
  in
  let seed_count = List.length Miri.Diag.all_kinds in
  let rewrite dir f =
    match Knowledge.Segment.open_writer
        ~expect:(Knowledge.Featvec.dim, Knowledge.Featvec.version) ~dir () with
    | Error e -> failf "opening %s: %s" dir e
    | Ok (w, _) ->
      f (fun vec entry ->
          match
            Knowledge.Segment.append w ~vec ~payload:(Knowledge.Kb.entry_to_json entry)
          with
          | Ok _ -> ()
          | Error e -> failf "appending to %s: %s" dir e);
      Knowledge.Segment.close w
  in
  let seed_rows dir =
    match Knowledge.Segment.load dir with
    | Error e ->
      failf "loading %s: %s" dir e;
      []
    | Ok r ->
      List.filter_map
        (fun (r : Knowledge.Segment.record) ->
          if r.Knowledge.Segment.id >= seed_count then None
          else
            Option.map
              (fun e -> (r.Knowledge.Segment.vec, e))
              (Knowledge.Kb.entry_of_json r.Knowledge.Segment.payload))
        r.Knowledge.Segment.records
  in
  let dirs = ref [] in
  let dir tag =
    let d = fresh_dir tag in
    dirs := d :: !dirs;
    d
  in
  let _, uninterrupted = kb_job ~slice:(dir "ref-a") ~journal:(dir "ref-a-j") "fresh" in
  (* (a) *)
  let slice_a = dir "resume-a" and journal_a = dir "resume-a-j" in
  ignore (kb_job ~slice:slice_a ~journal:journal_a "kill2");
  let past = seed_rows slice_a in
  rewrite slice_a (fun add ->
      List.iter
        (fun (vec, (e : Knowledge.Kb.entry)) ->
          add vec { e with Knowledge.Kb.advice = "appended past the mark" })
        past);
  let head_a, resumed_a = kb_job ~slice:slice_a ~journal:journal_a "resume" in
  if head_a <> "replayed 2 recomputed 2" then
    failf "appends past the mark: %S, want 2 replayed" head_a;
  if resumed_a <> uninterrupted then
    failf "appends past the mark: resumed reports differ from an uninterrupted run";
  (* the slice's seed rows, rewritten with other advice and fix under the
     same ids: everything past them, the killed run's learns included, is
     gone *)
  let replace_seed_rows slice =
    let rows = seed_rows slice in
    let replaced = dir "replaced" in
    rewrite replaced (fun add ->
        List.iteri
          (fun i (vec, (e : Knowledge.Kb.entry)) ->
            add vec
              { e with
                Knowledge.Kb.advice =
                  Printf.sprintf "replaced row %d: %s" i e.Knowledge.Kb.advice;
                recommended = Repairs.Rule.Assert })
          rows);
    if
      Sys.command
        (Printf.sprintf "rm -rf %s && mv %s %s" (Filename.quote slice)
           (Filename.quote replaced) (Filename.quote slice))
      <> 0
    then failf "replacing the rows below the mark failed"
  in
  (* (b) *)
  let slice_b = dir "resume-b" and journal_b = dir "resume-b-j" in
  ignore (kb_job ~slice:slice_b ~journal:journal_b "kill2");
  replace_seed_rows slice_b;
  let on_replaced = dir "on-replaced" and on_replaced_j = dir "on-replaced-j" in
  if
    Sys.command
      (Printf.sprintf "cp -r %s %s" (Filename.quote slice_b) (Filename.quote on_replaced))
    <> 0
  then failf "copying the replaced rows failed";
  let _, fresh_replaced = kb_job ~slice:on_replaced ~journal:on_replaced_j "fresh" in
  if fresh_replaced = uninterrupted then
    failf "replacing the rows changed no report: a mix would go unseen";
  let head_b, resumed_b = kb_job ~slice:slice_b ~journal:journal_b "resume" in
  if head_b <> "replayed 0 recomputed 4" then
    failf "rows replaced below the mark: %S, want the job recomputed" head_b;
  if resumed_b <> fresh_replaced then
    failf "rows replaced below the mark: reports differ from a fresh run on them";
  let head_b2, _ = kb_job ~slice:slice_b ~journal:journal_b "resume" in
  if head_b2 <> "replayed 0 recomputed 4" then
    failf "a second resume on the replaced rows: %S, want nothing replayed" head_b2;
  (* (c) *)
  (match (fresh_replaced, uninterrupted) with
  | r :: _, r' :: _ when r <> r' -> ()
  | _ -> failf "replacing the rows left the first report as it was: a mix would go unseen");
  let slice_c = dir "resume-c" and journal_c = dir "resume-c-j" in
  ignore (kb_job ~slice:slice_c ~journal:journal_c "kill2");
  let last = Filename.concat journal_c "rec-000001.json" in
  (match Unix.stat last with
  | st -> Unix.truncate last (st.Unix.st_size - 5)
  | exception Unix.Unix_error _ -> failf "no second record to tear");
  replace_seed_rows slice_c;
  let head_c, resumed_c = kb_job ~slice:slice_c ~journal:journal_c "resume" in
  if head_c <> "replayed 0 recomputed 4" then
    failf "a torn tail on replaced rows: %S, want the job recomputed" head_c;
  if resumed_c <> fresh_replaced then
    failf "a torn tail on replaced rows: reports differ from a fresh run on them";
  let head_c2, _ = kb_job ~slice:slice_c ~journal:journal_c "resume" in
  if head_c2 <> "replayed 0 recomputed 4" then
    failf "a second resume after a torn tail on replaced rows: %S, want nothing \
           replayed" head_c2;
  Printf.printf
    "resume on a persistent KB: appends past the mark %s, rows replaced below it \
     %s, and with a torn tail %s\n"
    head_a head_b head_c;
  List.iter
    (fun d -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d))))
    !dirs;

  if !failures > 0 then exit 1;
  print_endline "kb smoke ok"

(* -- driver ------------------------------------------------------------ *)

let experiments =
  [ ("fig5", fig5); ("fig7", fig7); ("fig8", fig89); ("fig9", fig89);
    ("fig10", fig10); ("fig11", fig11); ("fig12", fig12); ("table1", table1);
    ("ablate", ablate); ("perf", perf); ("smoke", smoke);
    ("resilience", resilience); ("resilience-smoke", resilience_smoke);
    ("chaos", chaos); ("resume-smoke", resume_smoke);
    ("interp", interp); ("interp-smoke", interp_smoke);
    ("bytecode-smoke", bytecode_smoke);
    ("trace-smoke", trace_smoke); ("obs-overhead", obs_overhead);
    ("serve-smoke", serve_smoke); ("chaos-serve", chaos_serve);
    ("procpool-smoke", procpool_smoke);
    ("knn", knn); ("kb-smoke", kb_smoke) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "serve-child"; socket; state; runners; poison_spec; mode ] ->
    serve_child ~socket ~state ~runners:(int_of_string runners) ~poison_spec
      ~mode
  | [ "worker-child" ] -> Serve.Procpool.worker_main ()
  | [ "kb-job-child"; slice; journal; mode; out ] ->
    kb_job_child ~slice ~journal ~mode ~out
  | [ "kb-append-child"; dir ] -> (
    (* kb-smoke helper: append 4-dim records until SIGKILLed *)
    match Knowledge.Segment.open_writer ~expect:(4, 1) ~dir () with
    | Error _ -> exit 2
    | Ok (w, _) ->
      let i = ref 0 in
      while true do
        ignore
          (Knowledge.Segment.append w
             ~vec:[| float_of_int !i; 0.5; 0.0; 1.0 |]
             ~payload:(Rb_util.Json.Obj [ ("i", Rb_util.Json.Num (float_of_int !i)) ]));
        incr i
      done)
  | [] ->
    Printf.printf "RustBrain reproduction benchmark harness (simulated clock; see DESIGN.md)\n";
    fig7 ();
    fig89 ();
    fig10 ();
    fig11 ();
    fig12 ();
    table1 ();
    fig5 ();
    ablate ();
    perf ()
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
      names
