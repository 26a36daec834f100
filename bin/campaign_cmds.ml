(* The campaign family: `campaign` runs any backend over the corpus,
   sharded across domains via the unified runner API; `trace-summary`
   renders a per-phase table from a --trace JSONL file. *)

open Cmdliner

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
      match
        match Common.split_names cases with
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
            Common.run_with_journal ?domains:opts.Exec.Campaign_opts.domains
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
          Common.print_metrics registry;
          if crashed <> [] then 2
          else if List.for_all (fun r -> r.Rustbrain.Report.passed) reports then 0
          else 1)))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a backend campaign over the corpus, sharded across domains.")
    Term.(const run $ backend $ cases $ json $ csv $ Common.opts_term)

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
       ~doc:"Render a per-phase count/time table from a JSONL trace recorded \
             with --trace. Wall-clock totals (fix traces) reproduce the \
             fix --profile figures; campaign traces total simulated time.")
    Term.(const run $ file)

