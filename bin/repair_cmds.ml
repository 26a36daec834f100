(* The repair family: `check` and `fix` on a MiniRust file, `corpus` and
   `corpus-show` over the benchmark corpus. *)

open Cmdliner

let report_outcome (r : Miri.Machine.run_result) =
  List.iter (fun line -> Printf.printf "  output: %s\n" line) r.Miri.Machine.output;
  (match r.Miri.Machine.outcome with
  | Miri.Machine.Finished -> print_endline "outcome: finished cleanly"
  | Miri.Machine.Panicked msg -> Printf.printf "outcome: panicked: %s\n" msg
  | Miri.Machine.Ub d -> Printf.printf "outcome: %s\n" (Miri.Diag.to_string d)
  | Miri.Machine.Step_limit -> print_endline "outcome: step limit exhausted"
  | Miri.Machine.Resource_limit m -> Printf.printf "outcome: resource limit: %s\n" m);
  List.iter (fun d -> Printf.printf "  diag: %s\n" (Miri.Diag.to_string d)) r.Miri.Machine.diags;
  Printf.printf "steps: %d, errors: %d\n" r.Miri.Machine.steps r.Miri.Machine.error_count

(* -- check -------------------------------------------------------------- *)

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let inputs =
    Arg.(value & opt string "" & info [ "i"; "inputs" ] ~docv:"N,N,..."
           ~doc:"Comma-separated probe inputs returned by input(i).")
  in
  let collect =
    Arg.(value & opt int 0 & info [ "collect" ] ~docv:"N"
           ~doc:"Collect up to $(docv) diagnostics instead of stopping at the first.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Thread-scheduler seed.") in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Record and print allocation/retag/invalidation events.")
  in
  let tree_walk =
    Arg.(value & flag & info [ "tree-walk" ]
           ~doc:"Interpret with the original tree-walking evaluator instead of \
                 the bytecode VM (differential-testing escape hatch; results \
                 are byte-identical).")
  in
  let run file inputs collect seed trace tree_walk =
    match Common.load file with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok program -> (
      let mode =
        if collect > 0 then Miri.Machine.Collect collect else Miri.Machine.Stop_first
      in
      let config =
        { Miri.Machine.default_config with
          Miri.Machine.mode; seed; max_steps = 1_000_000;
          inputs = Common.parse_inputs inputs; trace;
          engine =
            (if tree_walk then Miri.Machine.Tree_walk else Miri.Machine.Bytecode) }
      in
      match Miri.Machine.analyze ~config program with
      | Miri.Machine.Compile_error msg ->
        Printf.printf "compile error:\n%s\n" msg;
        1
      | Miri.Machine.Ran r ->
        List.iter (fun e -> Printf.printf "  event: %s\n" e) r.Miri.Machine.events;
        report_outcome r;
        if Miri.Machine.is_clean r then 0 else 1)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Detect undefined behaviour in a MiniRust file (Miri substrate).")
    Term.(const run $ file $ inputs $ collect $ seed $ trace $ tree_walk)

(* -- fix ----------------------------------------------------------------- *)

(* fix takes the shared vocabulary but can honor only a slice of it;
   anything it would silently ignore is refused instead *)
let fix_opts = function
  | Error _ as e -> e
  | Ok (o : Exec.Campaign_opts.t) ->
    if o.Exec.Campaign_opts.journal <> None || o.resume || o.fresh then
      Error "fix does not journal; --journal/--resume/--fresh apply to \
             campaign"
    else if o.domains <> None then
      Error "fix repairs one file on one domain; --domains applies to \
             campaign and serve"
    else if o.out <> None then
      Error "fix prints its report; --out applies to campaign"
    else (
      match o.seeds with
      | [ _ ] -> Ok o
      | _ -> Error "fix runs one repair; use campaign for seed sweeps")

(* Repairing an arbitrary file has no developer reference, so the oracle
   scores candidates purely by residual error count; semantic acceptability
   cannot be judged. *)
let fix_scorer probe p =
  match Minirust.Typecheck.check p with
  | Error _ -> 0.02
  | Ok _ ->
    let errors = Dataset.Semantic.error_count p probe in
    if errors = 0 then 1.0 else max 0.1 (1.0 /. (1.0 +. float_of_int errors))

let fix_solution =
  { Rustbrain.Solution.sname = "cli"; origin = "cli";
    steps =
      [ Rustbrain.Solution.Abstract;
        Rustbrain.Solution.Fix Rustbrain.Ub_class.C_replace;
        Rustbrain.Solution.Fix Rustbrain.Ub_class.C_modify;
        Rustbrain.Solution.Fix Rustbrain.Ub_class.C_assert ] }

let fix_report ~file ~category session (exec : Rustbrain.Slow_think.execution) =
  let stats = Rustbrain.Pipeline.llm_stats session in
  let resilient = Rustbrain.Pipeline.resilience session in
  let rstats = Llm_sim.Resilient.stats resilient in
  { Rustbrain.Report.case_name = file;
    category;
    passed = exec.Rustbrain.Slow_think.passed;
    semantic = false;  (* no developer reference to judge against *)
    seconds = exec.Rustbrain.Slow_think.seconds;
    llm_calls = stats.Llm_sim.Client.calls;
    tokens = stats.Llm_sim.Client.tokens_in + stats.Llm_sim.Client.tokens_out;
    iterations = exec.Rustbrain.Slow_think.iterations;
    solutions_tried = 1;
    rollbacks = exec.Rustbrain.Slow_think.rollbacks;
    n_sequence = exec.Rustbrain.Slow_think.n_sequence;
    winning_solution = Some "cli";
    feedback_hit = false;
    retries = rstats.Llm_sim.Resilient.retries;
    faults = rstats.Llm_sim.Resilient.faults;
    breaker_trips = rstats.Llm_sim.Resilient.breaker_trips;
    degraded = Llm_sim.Resilient.degraded resilient;
    gave_up =
      Llm_sim.Resilient.gave_up resilient && not exec.Rustbrain.Slow_think.passed;
    trace = exec.Rustbrain.Slow_think.trace }

let fix_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let inputs =
    Arg.(value & opt string "" & info [ "i"; "inputs" ] ~docv:"N,N,..."
           ~doc:"Probe inputs used during verification.")
  in
  let model =
    Arg.(value & opt string "GPT-4" & info [ "model" ] ~doc:"Simulated model profile.")
  in
  let temperature = Arg.(value & opt float 0.5 & info [ "temperature" ]) in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the repair report as JSON.")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Print per-phase wall time (parse, typecheck, lower, interpret, \
                 repair, re-verify) to stderr.")
  in
  let profile_phases =
    [ "parse"; "typecheck"; "lower"; "interpret"; "repair"; "re-verify" ]
  in
  let run file inputs model temperature json profile opts =
    match fix_opts opts with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok (opts : Exec.Campaign_opts.t) ->
    (* --profile is spans under the hood: the same records a --trace file
       gets also land in a wall-enabled memory sink, and the familiar
       stderr lines are rendered from it after the run — one source of
       truth for phase timings, and --json stdout stays parseable *)
    let file_sink =
      Option.map (fun p -> Obs.Trace.file ~wall:true p)
        opts.Exec.Campaign_opts.trace
    in
    let prof = if profile then Some (Obs.Trace.memory ~wall:true ()) else None in
    let sink =
      match (file_sink, prof) with
      | None, None -> None
      | Some f, None -> Some f
      | None, Some (m, _) -> Some m
      | Some f, Some (m, _) -> Some (Obs.Trace.tee f m)
    in
    let registry =
      if opts.Exec.Campaign_opts.metrics then Some (Obs.Metrics.create ())
      else None
    in
    let body () =
    match Obs.Trace.in_span "parse" (fun () -> Common.load file) with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok program -> (
      match Llm_sim.Profile.of_name model with
      | None ->
        Printf.eprintf "unknown model %S (known: %s)\n" model
          (String.concat ", " (List.map Llm_sim.Profile.name Llm_sim.Profile.all));
        1
      | Some model -> (
        (* the campaign's own session: fault plan, client, fallback,
           resilience wrapper, KB (--kb-dir included) and RNG *)
        let config =
          Exec.Campaign_opts.pipeline_config
            ~base:{ Rustbrain.Pipeline.default_config with
                    Rustbrain.Pipeline.model; temperature;
                    seed = Exec.Campaign_opts.seed opts }
            opts
        in
        match Rustbrain.Pipeline.create_session config with
        | exception Failure msg ->
          prerr_endline msg;
          1
        | session ->
        let clock = Rustbrain.Pipeline.clock session in
        Obs.Trace.set_ambient_time_source (fun () -> Rb_util.Simclock.now clock);
        let probe = Common.parse_inputs inputs in
        (* the pipeline re-typechecks every candidate itself, so a failure
           here must not change control flow: ill-typed falls through to the
           same Panic_bug category the old analyze path produced *)
        let tc =
          Obs.Trace.in_span "typecheck" (fun () -> Minirust.Typecheck.check program)
        in
        let env =
          Rustbrain.Pipeline.program_env session ~probe ~scorer:(fix_scorer probe)
        in
        Llm_sim.Resilient.start_repair (Rustbrain.Pipeline.resilience session);
        let machine_config =
          { Miri.Machine.default_config with
            Miri.Machine.mode = Miri.Machine.Stop_first; seed = 42;
            max_steps = 200_000; inputs = probe; trace = false }
        in
        (* lowering is its own profile phase so the interpret span times
           only VM execution, not compilation to bytecode *)
        let category =
          match tc with
          | Error _ -> Miri.Diag.Panic_bug
          | Ok info -> (
            let code =
              Obs.Trace.in_span "lower" (fun () -> Miri.Machine.lower program info)
            in
            let r =
              Obs.Trace.in_span "interpret" (fun () ->
                  Miri.Machine.run_lowered ~config:machine_config program info code)
            in
            match Miri.Machine.first_ub r with
            | Some d -> d.Miri.Diag.kind
            | None -> Miri.Diag.Panic_bug)
        in
        let exec =
          Obs.Trace.in_span "repair" (fun () ->
              Rustbrain.Slow_think.execute env ~program ~solution:fix_solution
                ~rollback:Rustbrain.Slow_think.Adaptive ~max_iters:10)
        in
        (* the pipeline already verified the winner internally; the re-verify
           phase times one standalone confirmation run on the final program *)
        if profile then
          ignore
            (Obs.Trace.in_span "re-verify" (fun () ->
                 Miri.Machine.analyze ~config:machine_config
                   exec.Rustbrain.Slow_think.final)
              : Miri.Machine.analysis);
        if json then begin
          print_endline
            (Rustbrain.Report.to_json (fix_report ~file ~category session exec));
          if exec.Rustbrain.Slow_think.passed then 0 else 1
        end
        else begin
          List.iter (fun line -> Printf.printf "  %s\n" line) exec.Rustbrain.Slow_think.trace;
          Printf.printf "errors: %s\n"
            (String.concat " -> " (List.map string_of_int exec.Rustbrain.Slow_think.n_sequence));
          Printf.printf "simulated repair time: %.1fs\n" exec.Rustbrain.Slow_think.seconds;
          if exec.Rustbrain.Slow_think.passed then begin
            print_endline "repaired program:";
            print_string (Minirust.Pretty.program exec.Rustbrain.Slow_think.final);
            0
          end
          else begin
            Printf.printf "could not reach a clean program (%d residual error(s))\n"
              exec.Rustbrain.Slow_think.errors;
            1
          end
        end))
    in
    let with_metrics () =
      match registry with
      | None -> body ()
      | Some reg -> Obs.Metrics.with_registry reg body
    in
    let code =
      match sink with
      | None -> with_metrics ()
      | Some tr -> Obs.Trace.with_ambient tr with_metrics
    in
    (match prof with
    | None -> ()
    | Some (_, recorded) ->
      (* repair-phase candidate runs emit their own nested "lower" spans;
         only the first record per phase — the explicit top-level span,
         which completes before any nested repeat — is the phase timing *)
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (r : Obs.Trace.record) ->
          if
            r.Obs.Trace.kind = Obs.Trace.Span
            && List.mem r.Obs.Trace.name profile_phases
            && not (Hashtbl.mem seen r.Obs.Trace.name)
          then begin
            Hashtbl.add seen r.Obs.Trace.name ();
            Printf.eprintf "profile: %-9s %8.2f ms\n%!" r.Obs.Trace.name
              r.Obs.Trace.wall_ms
          end)
        (recorded ()));
    Option.iter Obs.Trace.close file_sink;
    Common.print_metrics registry;
    code
  in
  Cmd.v
    (Cmd.info "fix" ~doc:"Repair a MiniRust file with the RustBrain pipeline.")
    Term.(const run $ file $ inputs $ model $ temperature $ json $ profile
          $ Common.opts_term)

(* -- corpus --------------------------------------------------------------- *)

let corpus_cmd =
  let run () =
    Printf.printf "%d cases across %d categories\n\n" Dataset.Corpus.size
      (List.length Dataset.Corpus.categories);
    List.iter
      (fun (kind, count) ->
        Printf.printf "%-18s %d case(s)\n" (Miri.Diag.kind_name kind) count)
      (Dataset.Corpus.stats ());
    print_newline ();
    List.iter
      (fun (c : Dataset.Case.t) ->
        Printf.printf "%-28s %-18s %s\n" c.Dataset.Case.name
          (Miri.Diag.kind_name c.Dataset.Case.category)
          c.Dataset.Case.description)
      Dataset.Corpus.all;
    0
  in
  Cmd.v (Cmd.info "corpus" ~doc:"List the benchmark corpus.") Term.(const run $ const ())

let corpus_show_cmd =
  let case_name = Arg.(required & pos 0 (some string) None & info [] ~docv:"CASE") in
  let run name =
    match Dataset.Corpus.find name with
    | None ->
      Printf.eprintf "unknown case %S\n" name;
      1
    | Some c ->
      Printf.printf "// %s (%s)\n// %s\n\n// --- buggy ---\n%s\n// --- reference fix ---\n%s"
        c.Dataset.Case.name
        (Miri.Diag.kind_name c.Dataset.Case.category)
        c.Dataset.Case.description c.Dataset.Case.buggy_src c.Dataset.Case.fixed_src;
      0
  in
  Cmd.v (Cmd.info "corpus-show" ~doc:"Print a corpus case.") Term.(const run $ case_name)
