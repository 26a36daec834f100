(* Command-line interface to the reproduction.

   - `check FILE`    run the Miri substrate on a MiniRust source file
   - `fix FILE`      repair a MiniRust source file with the RustBrain pipeline
   - `corpus`        list the benchmark corpus
   - `corpus-show`   print one case's buggy and reference sources
   - `corpus-fix`    run the full pipeline on one corpus case
   - `campaign`      run any backend (pipeline or baseline) over the corpus,
                     sharded across domains via the unified runner API
   - `serve`         run the event-driven repair server on a Unix socket
   - `serve-load`    drive a running server with synthetic multi-tenant load
   - `trace-summary` render a per-phase table from a --trace JSONL file

   `fix`, `corpus-fix`, `campaign` and `serve` share one campaign-options
   vocabulary (seeds, domains, fault injection, retries, deadline, journal,
   trace, metrics, out) built from a single Cmdliner term over
   [Exec.Campaign_opts] — the same record the serve wire protocol carries.

   MiniRust sources conventionally use the .mrs extension; any path works. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_inputs csv =
  if String.trim csv = "" then [||]
  else
    String.split_on_char ',' csv
    |> List.map (fun s -> Int64.of_string (String.trim s))
    |> Array.of_list

let load path =
  try Ok (Minirust.Parser.parse (read_file path)) with
  | Minirust.Parser.Parse_error (msg, line) ->
    Error (Printf.sprintf "%s:%d: parse error: %s" path line msg)
  | Minirust.Lexer.Lex_error (msg, line) ->
    Error (Printf.sprintf "%s:%d: lexical error: %s" path line msg)
  | Sys_error msg -> Error msg

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

(* -- the shared campaign-options term ------------------------------------ *)

let seeds_arg =
  Arg.(value & opt string "1" & info [ "seed"; "seeds" ] ~docv:"N,N,..."
         ~doc:"Campaign seed, or a comma-separated list for one campaign per \
               seed (single-repair commands require exactly one).")

let domains_arg =
  Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N"
         ~doc:"Worker-domain pool size. 0 = the recommended count capped at \
               8; an explicit value is honored as given, above 8 included.")

let fault_rate_arg =
  Arg.(value & opt float 0.0 & info [ "fault-rate" ] ~docv:"R"
         ~doc:"Inject simulated LLM API faults (timeouts, rate limits, transient \
               5xx, truncated/malformed replies) at total rate $(docv) in [0,1], \
               scheduled deterministically from the seed. 0 disables injection.")

let retries_arg =
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Retries per faulted LLM call (with clock-charged exponential \
               backoff) before degrading to the fallback profile.")

let deadline_arg =
  Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Per-repair watchdog budget in simulated milliseconds; past it the \
               repair stops starting new work. 0 = unlimited.")

let journal_arg =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR"
         ~doc:"Write-ahead journal directory: every completed repair is made \
               durable as it lands, so a killed run can be resumed with \
               $(b,--resume) and produce byte-identical reports.")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Replay the journal in $(b,--journal) $(i,DIR), re-running only \
               what is missing. Refused (exit 2) if the journal belongs to a \
               different campaign or build.")

let fresh_arg =
  Arg.(value & flag & info [ "fresh" ]
         ~doc:"Discard any journal in $(b,--journal) $(i,DIR) and start over.")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record a structured JSONL trace (pipeline phase spans, LLM \
               calls/faults/retries, interpreter runs, scheduler and journal \
               events) to $(docv), written atomically on completion. Campaign \
               traces carry simulated timestamps only, so a seeded run's trace \
               is byte-identical across invocations. Render it with \
               $(b,trace-summary).")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the metrics registry (counters, gauges, histograms; \
               merged across worker domains) to stderr after the run.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Also write the reports to $(docv) (JSON lines, or CSV under \
               $(b,--csv) where supported), via a crash-safe atomic replace: \
               readers see either the complete old file or the complete new \
               one.")

let kb_dir_arg =
  Arg.(value & opt (some string) None & info [ "kb-dir" ] ~docv:"DIR"
         ~doc:"Back the knowledge base with the persistent segment store in \
               $(docv) (created and seeded on first use). The campaign \
               retrieves from a snapshot frozen at open — deterministic \
               under concurrent appends — and appends what it learns for \
               future campaigns. Without this flag the KB is in-memory and \
               seed-only, as before.")

let kb_readonly_arg =
  Arg.(value & flag & info [ "kb-readonly" ]
         ~doc:"Open $(b,--kb-dir) without the single-writer lock: retrieval \
               only, learned entries are dropped. Needed when many processes \
               share one store.")

let parse_seeds spec =
  let parts =
    String.split_on_char ',' spec
    |> List.filter_map (fun s ->
         let s = String.trim s in
         if s = "" then None else Some (int_of_string_opt s))
  in
  if List.mem None parts then
    Error
      (Printf.sprintf "--seeds %S: expected a comma-separated list of integers"
         spec)
  else
    match List.filter_map Fun.id parts with
    | [] ->
      Error
        (Printf.sprintf
           "--seeds %S: expected a non-empty comma-separated list of integers"
           spec)
    | seeds -> Ok seeds

let opts_term =
  let build seeds domains fault_rate retries deadline_ms journal resume fresh
      trace metrics out kb_dir kb_readonly =
    match parse_seeds seeds with
    | Error _ as e -> e
    | Ok seeds ->
      Exec.Campaign_opts.validate
        { Exec.Campaign_opts.seeds;
          domains = (if domains <= 0 then None else Some domains);
          fault_rate; retries; deadline_ms; journal; resume; fresh; trace;
          metrics; out; kb_dir; kb_readonly }
  in
  Term.(const build $ seeds_arg $ domains_arg $ fault_rate_arg $ retries_arg
        $ deadline_arg $ journal_arg $ resume_arg $ fresh_arg $ trace_out_arg
        $ metrics_arg $ out_arg $ kb_dir_arg $ kb_readonly_arg)

(* Single-repair commands take the shared vocabulary but can honor only a
   slice of it; anything they would silently ignore is refused instead. *)
let single_seed ~cmd (o : Exec.Campaign_opts.t) =
  match o.Exec.Campaign_opts.seeds with
  | [ s ] -> Ok s
  | _ ->
    Error
      (Printf.sprintf "%s runs one repair; use campaign for seed sweeps" cmd)

let print_metrics = function
  | None -> ()
  | Some reg -> prerr_string (Obs.Metrics.render reg)

(* Run the jobs, through Checkpoint when a journal is in play. Returns the
   results, the scheduler's supervision counters, and the checkpoint
   outcome when journaled. *)
let run_with_journal ?domains ?trace ?metrics ~journal jobs =
  match journal with
  | None ->
    let results, sup = Exec.Scheduler.run_jobs ?domains ?trace ?metrics jobs in
    Ok (results, sup, None)
  | Some (dir, mode) -> (
    match Exec.Checkpoint.run ?domains ?trace ?metrics ~dir ~mode jobs with
    | o -> Ok (o.Exec.Checkpoint.results, o.Exec.Checkpoint.supervision, Some o)
    | exception Exec.Checkpoint.Fingerprint_mismatch { expected; found } ->
      Error
        (Printf.sprintf
           "journal %s belongs to a different campaign or build\n\
           \  (manifest fingerprint %s, this run %s)\n\
            pass --fresh to discard it" dir found expected)
    | exception Failure msg -> Error msg)

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
    match load file with
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
          inputs = parse_inputs inputs; trace;
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

(* Repairing an arbitrary file has no developer reference, so the oracle
   scores candidates purely by residual error count; semantic acceptability
   cannot be judged. *)
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
    match
      match opts with
      | Error _ as e -> e
      | Ok (o : Exec.Campaign_opts.t) ->
        if o.Exec.Campaign_opts.journal <> None || o.resume || o.fresh then
          Error "fix does not journal; --journal/--resume/--fresh apply to \
                 corpus-fix and campaign"
        else if o.domains <> None then
          Error "fix repairs one file on one domain; --domains applies to \
                 campaign and serve"
        else if o.out <> None then
          Error "fix prints its report; --out applies to corpus-fix, campaign \
                 and serve-load"
        else
          Result.map (fun seed -> (o, seed)) (single_seed ~cmd:"fix" o)
    with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok ((opts : Exec.Campaign_opts.t), seed) ->
    let fault_rate = opts.Exec.Campaign_opts.fault_rate in
    let retries = opts.Exec.Campaign_opts.retries in
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
    match Obs.Trace.in_span "parse" (fun () -> load file) with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok program -> (
      match Llm_sim.Profile.of_name model with
      | None ->
        Printf.eprintf "unknown model %S (known: %s)\n" model
          (String.concat ", " (List.map Llm_sim.Profile.name Llm_sim.Profile.all));
        1
      | Some model ->
        let probe = parse_inputs inputs in
        let clock = Rb_util.Simclock.create () in
        Obs.Trace.set_ambient_time_source (fun () -> Rb_util.Simclock.now clock);
        let faults =
          if fault_rate > 0.0 then
            Some (Llm_sim.Faults.create ~seed:((seed * 7919) + 13)
                    (Llm_sim.Faults.uniform fault_rate))
          else None
        in
        let client =
          Llm_sim.Client.create ~seed ?faults ~clock (Llm_sim.Profile.get model)
        in
        let fallback =
          Llm_sim.Client.create ~seed:((seed * 13) + 5) ~clock
            (Llm_sim.Profile.get Llm_sim.Profile.Gpt35)
        in
        let resilient =
          Llm_sim.Resilient.create ~seed:((seed * 17) + 29)
            ~config:{ Llm_sim.Resilient.default_config with
                      Llm_sim.Resilient.max_retries = retries;
                      deadline = Exec.Campaign_opts.deadline opts }
            ~fallback client
        in
        let kb = Knowledge.Kb.create ~clock () in
        Knowledge.Kb.seed_default kb;
        (* the pipeline re-typechecks every candidate itself, so a failure
           here must not change control flow: ill-typed falls through to the
           same Panic_bug category the old analyze path produced *)
        let tc =
          Obs.Trace.in_span "typecheck" (fun () -> Minirust.Typecheck.check program)
        in
        let scorer p =
          match Minirust.Typecheck.check p with
          | Error _ -> 0.02
          | Ok _ ->
            let errors = Dataset.Semantic.error_count p probe in
            if errors = 0 then 1.0 else max 0.1 (1.0 /. (1.0 +. float_of_int errors))
        in
        let env =
          { Rustbrain.Env.clock; client;
            sampling = { Llm_sim.Client.temperature };
            kb = Some kb; scorer; reference = None; probes = [ probe ];
            ref_panics = [ false ];
            rng = Rb_util.Rng.create (seed * 31 + 7);
            resilient = Some resilient; runner = None }
        in
        Llm_sim.Resilient.start_repair resilient;
        let solution =
          { Rustbrain.Solution.sname = "cli"; origin = "cli";
            steps =
              [ Rustbrain.Solution.Abstract;
                Rustbrain.Solution.Fix Rustbrain.Ub_class.C_replace;
                Rustbrain.Solution.Fix Rustbrain.Ub_class.C_modify;
                Rustbrain.Solution.Fix Rustbrain.Ub_class.C_assert ] }
        in
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
              Rustbrain.Slow_think.execute env ~program ~solution
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
          let stats = Llm_sim.Client.stats client in
          let rstats = Llm_sim.Resilient.stats resilient in
          let report =
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
                Llm_sim.Resilient.gave_up resilient
                && not exec.Rustbrain.Slow_think.passed;
              trace = exec.Rustbrain.Slow_think.trace }
          in
          print_endline (Rustbrain.Report.to_json report);
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
        end)
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
    print_metrics registry;
    code
  in
  Cmd.v
    (Cmd.info "fix" ~doc:"Repair a MiniRust file with the RustBrain pipeline.")
    Term.(const run $ file $ inputs $ model $ temperature $ json $ profile
          $ opts_term)

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

let corpus_fix_cmd =
  let case_name = Arg.(required & pos 0 (some string) None & info [] ~docv:"CASE") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the repair report as JSON.")
  in
  let run name json opts =
    match
      match opts with
      | Error _ as e -> e
      | Ok o ->
        Result.map (fun seed -> (o, seed)) (single_seed ~cmd:"corpus-fix" o)
    with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok ((opts : Exec.Campaign_opts.t), seed) -> (
    match Dataset.Corpus.find name with
    | None ->
      Printf.eprintf "unknown case %S\n" name;
      1
    | Some case -> (
      let runner =
        match Exec.Campaign_opts.runner opts ~backend:"rustbrain" with
        | Ok r -> Exec.Runner.with_seed r seed
        | Error msg -> failwith msg (* rustbrain always resolves *)
      in
      let trace_sink = Option.map Obs.Trace.file opts.Exec.Campaign_opts.trace in
      let registry =
        if opts.Exec.Campaign_opts.metrics then Some (Obs.Metrics.create ())
        else None
      in
      match
        match Exec.Campaign_opts.journal_mode opts with
        | Error _ as e -> e
        | Ok journal ->
          run_with_journal
            ~domains:(Option.value ~default:1 opts.Exec.Campaign_opts.domains)
            ?trace:trace_sink ?metrics:registry ~journal
            [ { Exec.Scheduler.label = Printf.sprintf "corpus-fix/seed%d" seed;
                runner;
                cases = [ case ] } ]
      with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok (results, _, _) -> (
        Option.iter Obs.Trace.close trace_sink;
        print_metrics registry;
        match results with
        | [ { Exec.Scheduler.reports = [ r ]; failure = None; _ } ] ->
          (match opts.Exec.Campaign_opts.out with
          | Some path ->
            Rb_util.Fsfile.write_channel path (fun oc ->
                Rustbrain.Report.emit_jsonl oc (List.to_seq [ r ]))
          | None -> ());
          if json then print_endline (Rustbrain.Report.to_json r)
          else begin
            List.iter (fun line -> Printf.printf "  %s\n" line) r.Rustbrain.Report.trace;
            print_endline (Rustbrain.Report.summary_line r)
          end;
          if r.Rustbrain.Report.passed then 0 else 1
        | [ { Exec.Scheduler.failure = Some f; _ } ] ->
          Printf.eprintf "corpus-fix crashed: %s\n%s%!" f.Exec.Scheduler.exn
            f.Exec.Scheduler.backtrace;
          2
        | _ ->
          prerr_endline "corpus-fix: unexpected scheduler result";
          2)))
  in
  Cmd.v
    (Cmd.info "corpus-fix" ~doc:"Run the full pipeline on one corpus case.")
    Term.(const run $ case_name $ json $ opts_term)

(* -- campaign ------------------------------------------------------------- *)

let campaign_cmd =
  let backend =
    Arg.(value & opt string "rustbrain" & info [ "backend" ] ~docv:"NAME"
           ~doc:(Printf.sprintf "Backend to run: %s."
                   (String.concat ", " Exec.Backends.all_names)))
  in
  let cases =
    Arg.(value & opt string "" & info [ "cases" ] ~docv:"NAME,NAME,..."
           ~doc:"Restrict to these corpus cases (default: whole corpus).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object per report.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV rows with a header line.")
  in
  let run backend cases json csv opts =
    match opts with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok (opts : Exec.Campaign_opts.t) -> (
    match Exec.Campaign_opts.runner opts ~backend with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok runner -> (
      let case_filter =
        String.split_on_char ',' cases
        |> List.filter_map (fun s ->
             let s = String.trim s in
             if s = "" then None else Some s)
      in
      match
        match case_filter with
        | [] -> Ok Dataset.Corpus.all
        | names ->
          let missing =
            List.filter (fun n -> Dataset.Corpus.find n = None) names
          in
          if missing <> [] then Error missing
          else
            Ok (List.filter_map Dataset.Corpus.find names)
      with
      | Error missing ->
        Printf.eprintf "unknown case(s): %s\n" (String.concat ", " missing);
        1
      | Ok selected -> (
        let trace_sink =
          Option.map Obs.Trace.file opts.Exec.Campaign_opts.trace
        in
        let registry =
          if opts.Exec.Campaign_opts.metrics then Some (Obs.Metrics.create ())
          else None
        in
        match
          match Exec.Campaign_opts.journal_mode opts with
          | Error _ as e -> e
          | Ok journal ->
            run_with_journal ?domains:opts.Exec.Campaign_opts.domains
              ?trace:trace_sink ?metrics:registry ~journal
              (Exec.Scheduler.seeded_jobs runner
                 ~seeds:opts.Exec.Campaign_opts.seeds selected)
        with
        | Error msg ->
          prerr_endline msg;
          2
        | Ok (results, sup, ckpt) ->
          Option.iter Obs.Trace.close trace_sink;
          let crashed = Exec.Scheduler.failures results in
          List.iter
            (fun ((job : Exec.Scheduler.job), (f : Exec.Scheduler.failure)) ->
              Printf.eprintf "campaign job %s crashed: %s\n%s%!" job.Exec.Scheduler.label
                f.Exec.Scheduler.exn f.Exec.Scheduler.backtrace)
            crashed;
          let reports =
            List.concat_map (fun r -> r.Exec.Scheduler.reports) results
          in
          let stats =
            List.fold_left
              (fun acc r -> Exec.Runner.add_stats acc r.Exec.Scheduler.stats)
              Exec.Runner.no_stats results
          in
          (match opts.Exec.Campaign_opts.out with
          | Some path ->
            Rb_util.Fsfile.write_channel path (fun oc ->
                if csv then Rustbrain.Report.emit_csv oc (List.to_seq reports)
                else Rustbrain.Report.emit_jsonl oc (List.to_seq reports))
          | None -> ());
          (match ckpt with
          | Some o ->
            (* stdout may be machine-read under --json/--csv *)
            Printf.eprintf "journal: %d replayed, %d recomputed%s\n%!"
              o.Exec.Checkpoint.replayed o.Exec.Checkpoint.recomputed
              (if o.Exec.Checkpoint.dropped > 0 then
                 Printf.sprintf ", %d corrupt record(s) dropped"
                   o.Exec.Checkpoint.dropped
               else "")
          | None -> ());
          if json then
            List.iter (fun r -> print_endline (Rustbrain.Report.to_json r)) reports
          else if csv then begin
            print_endline Rustbrain.Report.csv_header;
            List.iter (fun r -> print_endline (Rustbrain.Report.csv_row r)) reports
          end
          else begin
            List.iter (fun r -> print_endline (Rustbrain.Report.summary_line r)) reports;
            let passed = List.length (List.filter (fun r -> r.Rustbrain.Report.passed) reports) in
            Printf.printf
              "passed %d/%d; verification cache hit-rate %.1f%%; supervisor \
               restarts %d, orphaned jobs %d\n"
              passed (List.length reports)
              (100.0 *. Exec.Runner.hit_rate stats)
              sup.Exec.Scheduler.restarts sup.Exec.Scheduler.orphaned_jobs
          end;
          print_metrics registry;
          if crashed <> [] then 2
          else if List.for_all (fun r -> r.Rustbrain.Report.passed) reports then 0
          else 1)))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a backend campaign over the corpus, sharded across domains.")
    Term.(const run $ backend $ cases $ json $ csv $ opts_term)

(* -- serve ---------------------------------------------------------------- *)

let socket_arg =
  Arg.(value & opt string "rustbrain.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path.")

let parse_weights spec =
  if String.trim spec = "" then Ok []
  else
    String.split_on_char ',' spec
    |> List.map (fun part ->
         match String.index_opt part '=' with
         | Some i ->
           let tenant = String.trim (String.sub part 0 i) in
           let w =
             String.trim (String.sub part (i + 1) (String.length part - i - 1))
           in
           (match (tenant, int_of_string_opt w) with
           | "", _ | _, None ->
             Error (Printf.sprintf "--weights: bad entry %S" part)
           | t, Some w -> Ok (t, w))
         | None -> Error (Printf.sprintf "--weights: bad entry %S" part))
    |> List.fold_left
         (fun acc r ->
           match (acc, r) with
           | Error _, _ -> acc
           | _, Error e -> Error e
           | Ok ws, Ok w -> Ok (w :: ws))
         (Ok [])
    |> Result.map List.rev

let serve_cmd =
  let state_dir =
    Arg.(value & opt string "serve-state" & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"Durable server state: the fsynced accepted-jobs queue, one \
                 write-ahead journal per job, and stitched result files. A \
                 server restarted on the same directory re-enqueues every \
                 accepted-but-unfinished job and replays journaled repairs.")
  in
  let runners =
    Arg.(value & opt int 2 & info [ "runners" ] ~docv:"N"
           ~doc:"Concurrent job slots; each job is internally domain-parallel \
                 per its own opts (or $(b,--domains) as the default).")
  in
  let max_queue =
    Arg.(value & opt int 128 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Bounded inbound queue; past it submissions get an explicit \
                 BUSY with a retry-after hint instead of buffering.")
  in
  let quota =
    Arg.(value & opt int 64 & info [ "quota" ] ~docv:"N"
           ~doc:"Max queued jobs per tenant.")
  in
  let weights =
    Arg.(value & opt string "" & info [ "weights" ] ~docv:"TENANT=W,..."
           ~doc:"Weighted-fair-queue weights; unlisted tenants weigh 1.")
  in
  let max_crashes =
    Arg.(value & opt int 3 & info [ "max-crashes" ] ~docv:"N"
           ~doc:"Crash budget per job: a job whose attempts crash a runner \
                 (or the whole server — counted durably across restarts) \
                 this many times is quarantined as poison instead of being \
                 retried forever.")
  in
  let stall_timeout =
    Arg.(value & opt float 300.0 & info [ "stall-timeout" ] ~docv:"SECONDS"
           ~doc:"Watchdog: abort a running job that completes no case for \
                 this long (cooperative at the next case boundary; a worker \
                 hung inside a case is SIGTERMed, then SIGKILLed, and the \
                 job requeued at its journal frontier).")
  in
  let job_timeout =
    Arg.(value & opt float 3600.0 & info [ "job-timeout" ] ~docv:"SECONDS"
           ~doc:"Watchdog: wall-clock ceiling for a single job attempt.")
  in
  let evict_idle =
    Arg.(value & opt float 30.0 & info [ "evict-idle" ] ~docv:"SECONDS"
           ~doc:"Evict a connection with pending output whose socket has \
                 accepted nothing for this long (slowloris reader). The \
                 durable results file makes eviction safe: re-fetch with \
                 RESULTS.")
  in
  let worker_mem_mb =
    Arg.(value & opt int 0 & info [ "worker-mem-mb" ] ~docv:"MIB"
           ~doc:"Address-space cap (RLIMIT_AS) per worker process, in MiB; \
                 a worker that exceeds it dies to the limit and the attempt \
                 is crash-accounted. 0 (default) sets no cap.")
  in
  let kb_write =
    Arg.(value & flag & info [ "kb-write" ]
           ~doc:"Open tenant knowledge stores writable, so jobs append what \
                 they learn. Off by default: concurrent jobs of one tenant \
                 would contend for the store's single-writer lock, so enable \
                 this only where tenant jobs are serialized.")
  in
  let run socket state_dir runners max_queue quota weights max_crashes
      stall_timeout job_timeout evict_idle worker_mem_mb kb_write opts =
    match
      match opts with
      | Error _ as e -> e
      | Ok (o : Exec.Campaign_opts.t) ->
        if o.Exec.Campaign_opts.journal <> None || o.resume || o.fresh then
          Error "the server journals every job itself under --state-dir; \
                 --journal/--resume/--fresh do not apply"
        else if o.out <> None then
          Error "the server stores results under --state-dir; --out does not \
                 apply"
        else if o.kb_readonly then
          Error "the server opens tenant knowledge stores read-only already; \
                 pass --kb-write to make them writable"
        else if kb_write && o.kb_dir = None then
          Error "--kb-write requires --kb-dir DIR"
        else Result.map (fun ws -> (o, ws)) (parse_weights weights)
    with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok ((opts : Exec.Campaign_opts.t), weights) ->
      if runners < 1 || max_queue < 1 || quota < 1 then begin
        prerr_endline "--runners/--max-queue/--quota must be at least 1";
        1
      end
      else if max_crashes < 1 then begin
        prerr_endline "--max-crashes must be at least 1";
        1
      end
      else if stall_timeout <= 0.0 || job_timeout <= 0.0 || evict_idle <= 0.0
      then begin
        prerr_endline
          "--stall-timeout/--job-timeout/--evict-idle must be positive";
        1
      end
      else if worker_mem_mb < 0 then begin
        prerr_endline "--worker-mem-mb must be non-negative";
        1
      end
      else begin
        let trace_sink =
          Option.map (fun p -> Obs.Trace.file ~wall:true p)
            opts.Exec.Campaign_opts.trace
        in
        let registry =
          if opts.Exec.Campaign_opts.metrics then Some (Obs.Metrics.create ())
          else None
        in
        let default_opts =
          (* kb fields are server-level policy (per-tenant slicing), not
             per-job defaults; like journal/out they must not reach jobs
             through the opts record *)
          { opts with
            Exec.Campaign_opts.journal = None; resume = false; fresh = false;
            trace = None; metrics = false; out = None;
            kb_dir = None; kb_readonly = false }
        in
        let cfg =
          { Serve.Server.default_config with
            Serve.Server.socket; state_dir; runners;
            domains_per_job = opts.Exec.Campaign_opts.domains;
            max_queue; quota; weights; default_opts;
            max_crashes; stall_timeout_s = stall_timeout;
            job_timeout_s = job_timeout; evict_idle_s = evict_idle;
            worker_mem_mb;
            rng_seed = Exec.Campaign_opts.seed opts;
            kb_dir = opts.Exec.Campaign_opts.kb_dir;
            kb_readonly = not kb_write;
            trace = trace_sink; metrics = registry }
        in
        let s =
          Serve.Server.run
            ~on_ready:(fun p -> Printf.printf "serve: listening on %s\n%!" p)
            cfg
        in
        Option.iter Obs.Trace.close trace_sink;
        print_metrics registry;
        Printf.printf
          "serve: accepted %d, completed %d, failed %d, cancelled %d, busy %d, \
           rejected %d, resumed %d, left queued %d, quarantined %d, requeued \
           %d, evicted %d\n"
          s.Serve.Server.accepted s.Serve.Server.completed s.Serve.Server.failed
          s.Serve.Server.cancelled s.Serve.Server.busy s.Serve.Server.rejected
          s.Serve.Server.resumed s.Serve.Server.left_queued
          s.Serve.Server.quarantined s.Serve.Server.requeued
          s.Serve.Server.evicted;
        if s.Serve.Server.failed > 0 then 1 else 0
      end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the event-driven repair server: durable admission, per-tenant \
             weighted fair queuing, per-case report streaming, kill-safe \
             resume, process-isolated worker supervision (cooperative cancel, \
             then SIGTERM, then SIGKILL) and poison-job quarantine. Stops on \
             a SHUTDOWN frame or after a DRAIN wind-down.")
    Term.(const run $ socket_arg $ state_dir $ runners $ max_queue $ quota
          $ weights $ max_crashes $ stall_timeout $ job_timeout $ evict_idle
          $ worker_mem_mb $ kb_write $ opts_term)

(* -- serve-fsck ----------------------------------------------------------- *)

let serve_fsck_cmd =
  let state_dir =
    Arg.(value & opt string "serve-state" & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"The server state directory to scan.")
  in
  let dry_run =
    Arg.(value & flag & info [ "dry-run" ]
           ~doc:"Classify and report only; heal nothing, move nothing.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let run state_dir dry_run json =
    if not (Sys.file_exists state_dir) then begin
      Printf.eprintf "serve-fsck: no state directory at %s\n" state_dir;
      1
    end
    else begin
      let report = Serve.Store.fsck ~heal:(not dry_run) ~dir:state_dir () in
      if json then
        print_endline
          (Rb_util.Json.to_string (Serve.Store.fsck_report_to_json report))
      else begin
        Printf.printf
          "serve-fsck%s: %d records scanned — %d intact, %d legacy, %d \
           healed, %d torn, %d corrupt\n"
          (if dry_run then " (dry run)" else "")
          report.Serve.Store.scanned report.Serve.Store.intact
          report.Serve.Store.legacy
          (Serve.Store.fsck_count `Healed report)
          (Serve.Store.fsck_count `Torn report)
          (Serve.Store.fsck_count `Corrupt report);
        List.iter
          (fun (i : Serve.Store.fsck_issue) ->
            Printf.printf "  [%s] %s: %s — %s\n"
              (Serve.Store.severity_label i.Serve.Store.severity)
              i.Serve.Store.rel_path i.Serve.Store.detail i.Serve.Store.action)
          report.Serve.Store.issues
      end;
      (* torn and corrupt records mean data needed attention; healed and
         legacy are routine *)
      if
        Serve.Store.fsck_count `Corrupt report > 0
        || Serve.Store.fsck_count `Torn report > 0
      then 1
      else 0
    end
  in
  Cmd.v
    (Cmd.info "serve-fsck"
       ~doc:"Scan (and heal) a repair-server state directory: classify every \
             durable record as intact / legacy / healed / torn / corrupt, \
             drop torn tails, remove stale temp files, and set unreadable \
             records aside under quarantined/corrupt/ with their bytes \
             preserved. The server runs the same scrub at startup; this \
             command is the offline/ops entry point. Exits 1 if anything \
             was torn or corrupt.")
    Term.(const run $ state_dir $ dry_run $ json)

(* -- kb-* : persistent knowledge-base operations -------------------------- *)

let kb_store_dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
         ~doc:"The knowledge-base store directory (the one campaigns use \
               with $(b,--kb-dir)).")

let kb_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let kb_report_json (r : Knowledge.Segment.load_report) extra =
  let num i = Rb_util.Json.Num (float_of_int i) in
  Rb_util.Json.Obj
    ([ ("records", num (List.length r.Knowledge.Segment.records));
       ("segments", num r.Knowledge.Segment.segments);
       ("tail_records", num r.Knowledge.Segment.tail_records);
       ("healed_tail_bytes", num r.Knowledge.Segment.healed_tail_bytes);
       ("corrupt_segments", num r.Knowledge.Segment.corrupt_segments);
       ("mismatched", num r.Knowledge.Segment.mismatched);
       ("duplicates", num r.Knowledge.Segment.duplicates) ]
    @ extra)

let kb_category_histogram (r : Knowledge.Segment.load_report) =
  List.fold_left
    (fun acc (rec_ : Knowledge.Segment.record) ->
      let key =
        match Knowledge.Kb.entry_of_json rec_.Knowledge.Segment.payload with
        | Some e -> Miri.Diag.kind_name e.Knowledge.Kb.category
        | None -> "(undecodable)"
      in
      let n = Option.value (List.assoc_opt key acc) ~default:0 in
      (key, n + 1) :: List.remove_assoc key acc)
    [] r.Knowledge.Segment.records
  |> List.sort compare

let kb_init_cmd =
  let run dir =
    let clock = Rb_util.Simclock.create () in
    match Knowledge.Kb.open_dir ~dir ~clock () with
    | Error e ->
      Printf.eprintf "kb-init: %s\n" e;
      1
    | Ok kb ->
      Printf.printf "kb-init: store at %s ready with %d entries\n" dir
        (Knowledge.Kb.size kb);
      0
  in
  Cmd.v
    (Cmd.info "kb-init"
       ~doc:"Create (and seed with the built-in per-category expertise) a \
             persistent knowledge-base store, or verify an existing one \
             opens writable. Idempotent.")
    Term.(const run $ kb_store_dir_arg)

let kb_stats_cmd =
  let run dir json =
    match Knowledge.Segment.load dir with
    | Error e ->
      Printf.eprintf "kb-stats: %s\n" e;
      1
    | Ok report ->
      let hist = kb_category_histogram report in
      if json then
        print_endline
          (Rb_util.Json.to_string
             (kb_report_json report
                [ ( "categories",
                    Rb_util.Json.Obj
                      (List.map
                         (fun (k, n) ->
                           (k, Rb_util.Json.Num (float_of_int n)))
                         hist) ) ]))
      else begin
        Printf.printf
          "kb-stats: %d entries in %d segments (+%d in the tail log)\n"
          (List.length report.Knowledge.Segment.records)
          report.Knowledge.Segment.segments
          report.Knowledge.Segment.tail_records;
        List.iter (fun (k, n) -> Printf.printf "  %-20s %d\n" k n) hist;
        if report.Knowledge.Segment.mismatched > 0
           || report.Knowledge.Segment.corrupt_segments > 0 then
          Printf.printf
            "  (%d mismatched record(s), %d corrupt segment(s) not counted; \
             run kb-fsck)\n"
            report.Knowledge.Segment.mismatched
            report.Knowledge.Segment.corrupt_segments
      end;
      0
  in
  Cmd.v
    (Cmd.info "kb-stats"
       ~doc:"Summarize a persistent knowledge-base store: live entries, \
             segment/tail layout, per-category histogram, and anything a \
             load had to skip.")
    Term.(const run $ kb_store_dir_arg $ kb_json_arg)

let kb_fsck_cmd =
  let dry_run =
    Arg.(value & flag & info [ "dry-run" ]
           ~doc:"Classify and report only; heal nothing, move nothing.")
  in
  let run dir dry_run json =
    match Knowledge.Segment.fsck ~fix:(not dry_run) dir with
    | Error e ->
      Printf.eprintf "kb-fsck: %s\n" e;
      1
    | Ok report ->
      if json then
        print_endline (Rb_util.Json.to_string (kb_report_json report []))
      else
        Printf.printf
          "kb-fsck%s: %d live records (%d segments, %d tail) — %d torn tail \
           bytes %s, %d corrupt segment(s) %s, %d mismatched record(s) %s, \
           %d duplicate id(s) dropped\n"
          (if dry_run then " (dry run)" else "")
          (List.length report.Knowledge.Segment.records)
          report.Knowledge.Segment.segments
          report.Knowledge.Segment.tail_records
          report.Knowledge.Segment.healed_tail_bytes
          (if dry_run then "found" else "healed")
          report.Knowledge.Segment.corrupt_segments
          (if dry_run then "found" else "quarantined")
          report.Knowledge.Segment.mismatched
          (if dry_run then "found" else "quarantined")
          report.Knowledge.Segment.duplicates;
      (* a torn tail heals routinely (it is the expected kill -9 residue);
         corrupt or mismatched data means the store needed attention *)
      if
        report.Knowledge.Segment.corrupt_segments > 0
        || report.Knowledge.Segment.mismatched > 0
      then 1
      else 0
  in
  Cmd.v
    (Cmd.info "kb-fsck"
       ~doc:"Scan (and heal) a persistent knowledge-base store: verify every \
             segment checksum and tail frame, truncate torn tail bytes, set \
             corrupt segments aside under quarantined/ with their bytes \
             preserved, and quarantine dimension-mismatched records. The \
             same scrub runs at every writable open; this is the offline \
             entry point. Exits 1 if anything was corrupt or mismatched.")
    Term.(const run $ kb_store_dir_arg $ dry_run $ kb_json_arg)

(* -- serve-ctl ------------------------------------------------------------ *)

let serve_ctl_cmd =
  let action =
    let parse = function
      | "health" -> Ok `Health
      | "drain" -> Ok `Drain
      | "status" -> Ok `Status
      | "shutdown" -> Ok `Shutdown
      | s -> Error (`Msg (Printf.sprintf "unknown action %S" s))
    in
    let print ppf a =
      Format.pp_print_string ppf
        (match a with
        | `Health -> "health"
        | `Drain -> "drain"
        | `Status -> "status"
        | `Shutdown -> "shutdown")
    in
    Arg.(required
         & pos 0 (some (conv (parse, print))) None
         & info [] ~docv:"ACTION" ~doc:"health | drain | status | shutdown")
  in
  let run socket action =
    match Serve.Client.connect socket with
    | Error e ->
      Printf.eprintf "serve-ctl: %s\n" e;
      1
    | Ok c ->
      let req : Serve.Wire.request =
        match action with
        | `Health -> Serve.Wire.Health
        | `Drain -> Serve.Wire.Drain
        | `Status -> Serve.Wire.Status None
        | `Shutdown -> Serve.Wire.Shutdown
      in
      let code =
        match Serve.Client.request c req with
        | Error e ->
          Printf.eprintf "serve-ctl: %s\n" e;
          1
        | Ok (Serve.Wire.Health { queued; running; quarantined; draining; slots;
                                  worker_pids; respawns; kills_term;
                                  kills_kill })
          ->
          Printf.printf "health: queued %d, running %d, quarantined %d%s\n"
            queued running quarantined
            (if draining then ", draining" else "");
          Printf.printf "workers: %s\n"
            (if worker_pids = [] then "none"
             else
               "pids " ^ String.concat ", " (List.map string_of_int worker_pids));
          if respawns + kills_term + kills_kill > 0 then
            Printf.printf "supervision: %d respawned, %d SIGTERM, %d SIGKILL\n"
              respawns kills_term kills_kill;
          List.iter
            (fun (i, s) -> Printf.printf "  slot %d: %s\n" i s)
            slots;
          0
        | Ok (Serve.Wire.Draining { active; queued }) ->
          Printf.printf "draining: %d active, %d queued will finish\n" active
            queued;
          0
        | Ok (Serve.Wire.Shutting_down { active; queued }) ->
          Printf.printf "shutting down: %d active finishing, %d left queued\n"
            active queued;
          0
        | Ok (Serve.Wire.Server { queued; running; completed; cancelled;
                                  quarantined; tenants }) ->
          Printf.printf
            "server: queued %d, running %d, completed %d, cancelled %d, \
             quarantined %d\n"
            queued running completed cancelled quarantined;
          List.iter
            (fun (t, n) -> Printf.printf "  tenant %s: %d queued\n" t n)
            tenants;
          0
        | Ok (Serve.Wire.Error_msg m) ->
          Printf.eprintf "serve-ctl: server error: %s\n" m;
          1
        | Ok _ ->
          Printf.eprintf "serve-ctl: unexpected reply\n";
          1
      in
      Serve.Client.close c;
      code
  in
  Cmd.v
    (Cmd.info "serve-ctl"
       ~doc:"Operate on a running repair server: $(b,health) (queue depth, \
             slot states, quarantine count), $(b,drain) (stop admitting, \
             finish everything, flush, exit), $(b,status), $(b,shutdown).")
    Term.(const run $ socket_arg $ action)

let serve_load_cmd =
  let tenants =
    Arg.(value & opt int 4 & info [ "tenants" ] ~docv:"N"
           ~doc:"Concurrent client domains, one connection each.")
  in
  let jobs =
    Arg.(value & opt int 4 & info [ "jobs" ] ~docv:"N"
           ~doc:"Jobs submitted per tenant, back to back.")
  in
  let cases_per_job =
    Arg.(value & opt int 2 & info [ "cases-per-job" ] ~docv:"N"
           ~doc:"Corpus cases per job (rotating through the corpus), at most \
                 the corpus size.")
  in
  let backend =
    Arg.(value & opt string "llm-only" & info [ "backend" ] ~docv:"NAME"
           ~doc:"Backend each submission requests.")
  in
  let timeout =
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"S"
           ~doc:"Per-receive patience in seconds.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Send SHUTDOWN to the server after the load completes.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the outcome as JSON.")
  in
  let run socket tenants jobs cases_per_job backend timeout shutdown json opts =
    match
      match opts with
      | Error _ as e -> e
      | Ok (o : Exec.Campaign_opts.t) ->
        if o.Exec.Campaign_opts.journal <> None || o.resume || o.fresh
           || o.trace <> None || o.metrics
        then
          Error "--journal/--resume/--fresh/--trace/--metrics are server-side; \
                 pass them to serve"
        else if cases_per_job > Dataset.Corpus.size then
          (* the server rejects a job that lists a case twice *)
          Error
            (Printf.sprintf "--cases-per-job %d: the corpus has only %d cases"
               cases_per_job Dataset.Corpus.size)
        else Ok o
    with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok (opts : Exec.Campaign_opts.t) ->
      let wire_opts =
        { opts with
          Exec.Campaign_opts.journal = None; resume = false; fresh = false;
          trace = None; metrics = false; out = None }
      in
      let cfg =
        { Serve.Load.socket; tenants; jobs_per_tenant = jobs; cases_per_job;
          backend;
          opts =
            (if wire_opts = Exec.Campaign_opts.default then None
             else Some wire_opts);
          timeout_s = timeout;
          jitter_seed = Exec.Campaign_opts.seed opts }
      in
      let o = Serve.Load.run cfg in
      if shutdown then begin
        match Serve.Client.connect ~retries:1 socket with
        | Error e -> Printf.eprintf "serve-load: shutdown: %s\n" e
        | Ok c ->
          (match Serve.Client.request c Serve.Wire.Shutdown with
          | Ok _ -> ()
          | Error e -> Printf.eprintf "serve-load: shutdown: %s\n" e);
          Serve.Client.close c
      end;
      let rendered = Rb_util.Json.to_string (Serve.Load.outcome_to_json o) in
      (match opts.Exec.Campaign_opts.out with
      | Some path -> Rb_util.Fsfile.write_atomic path (rendered ^ "\n")
      | None -> ());
      if json then print_endline rendered
      else
        Printf.printf
          "serve-load: %d/%d jobs completed (%d cases) in %.2fs — %.2f jobs/s, \
           %.1f cases/s; busy %d, errors %d\n"
          o.Serve.Load.completed o.Serve.Load.submitted o.Serve.Load.cases_done
          o.Serve.Load.wall_s o.Serve.Load.jobs_per_s o.Serve.Load.cases_per_s
          o.Serve.Load.busy o.Serve.Load.errors;
      if o.Serve.Load.errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "serve-load"
       ~doc:"Drive a running repair server with synthetic multi-tenant load \
             and report sustained jobs/sec (honoring BUSY backoff).")
    Term.(const run $ socket_arg $ tenants $ jobs $ cases_per_job $ backend
          $ timeout $ shutdown $ json $ opts_term)

(* -- trace-summary -------------------------------------------------------- *)

let trace_summary_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  let run file =
    match Rb_util.Fsfile.read file with
    | None ->
      Printf.eprintf "cannot read %s\n" file;
      1
    | Some content ->
      let lines =
        String.split_on_char '\n' content
        |> List.filter (fun l -> String.trim l <> "")
      in
      (* aggregate per record name, keeping first-appearance order so the
         table reads in pipeline order (parse before typecheck before ...) *)
      let order = ref [] in
      let tbl = Hashtbl.create 16 in
      let bad = ref 0 in
      List.iter
        (fun line ->
          match Obs.Trace.of_jsonl line with
          | Error _ -> incr bad
          | Ok r ->
            let name = r.Obs.Trace.name in
            let slot =
              match Hashtbl.find_opt tbl name with
              | Some s -> s
              | None ->
                let s = (ref 0, ref 0.0, ref 0.0) in
                Hashtbl.add tbl name s;
                order := name :: !order;
                s
            in
            let n, sim, wall = slot in
            incr n;
            sim := !sim +. r.Obs.Trace.dur;
            wall := !wall +. r.Obs.Trace.wall_ms)
        lines;
      if Hashtbl.length tbl = 0 then begin
        Printf.eprintf "%s: no trace records\n" file;
        1
      end
      else begin
        let rows =
          List.rev_map
            (fun name ->
              let n, sim, wall = Hashtbl.find tbl name in
              [ name; string_of_int !n; Printf.sprintf "%.3f" !sim;
                Printf.sprintf "%.2f" !wall ])
            !order
        in
        print_string
          (Statkit.Table.render
             ~aligns:[ Statkit.Table.Left; Statkit.Table.Right;
                       Statkit.Table.Right; Statkit.Table.Right ]
             ~header:[ "phase"; "count"; "sim s"; "wall ms" ] rows);
        if !bad > 0 then Printf.eprintf "%d unparseable line(s) skipped\n" !bad;
        0
      end
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Render a per-phase count/time table from a JSONL trace recorded              with --trace. Wall-clock totals (fix traces) reproduce the              fix --profile figures; campaign traces total simulated time.")
    Term.(const run $ file)

let () =
  (* hidden worker entry point: the server fork/execs its own binary with
     this marker argv, speaking the procpool protocol on stdin — never a
     user-facing subcommand, so it is dispatched before cmdliner runs *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "__rb_worker" then
    Serve.Procpool.worker_main ();
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "rustbrain" ~version:"1.0.0"
             ~doc:"RustBrain reproduction: detect and repair UB in MiniRust programs.")
          ~default
          [ check_cmd; fix_cmd; corpus_cmd; corpus_show_cmd; corpus_fix_cmd;
            campaign_cmd; serve_cmd; serve_fsck_cmd; serve_ctl_cmd;
            serve_load_cmd; kb_init_cmd; kb_stats_cmd; kb_fsck_cmd;
            trace_summary_cmd ]))
