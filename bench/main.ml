(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md's per-experiment index) and runs the
   gates `dune runtest` wires in (bench/dune). Throughput and per-layer
   timing are measured by rbbench (benchmark/), not here.

   Usage:
     dune exec bench/main.exe             # the paper's sections
     dune exec bench/main.exe -- fig8     # a single experiment
   The no-argument run prints exactly bench/paper.expected (the
   `paper-smoke` gate); regenerate it with
     dune exec bench/main.exe > bench/paper.expected

   Paper holds the figures, Table I, the ablation and the fault-rate
   sweep; Campaign_gates, Interp_gates, Serve_gates, Chaos_serve and
   Kb_gates hold the gates. The gates re-exec this binary in four argv
   modes besides the experiment names: serve-child, worker-child,
   kb-job-child and kb-append-child. *)

let experiments =
  [ ("fig5", Paper.fig5); ("fig7", Paper.fig7); ("fig8", Paper.fig89);
    ("fig9", Paper.fig89); ("fig10", Paper.fig10); ("fig11", Paper.fig11);
    ("fig12", Paper.fig12); ("table1", Paper.table1); ("ablate", Paper.ablate);
    ("resilience", Paper.resilience);
    ("smoke", Campaign_gates.smoke);
    ("resilience-smoke", Campaign_gates.resilience_smoke);
    ("chaos", Campaign_gates.chaos);
    ("resume-smoke", Campaign_gates.resume_smoke);
    ("interp-smoke", Interp_gates.interp_smoke);
    ("bytecode-smoke", Interp_gates.bytecode_smoke);
    ("trace-smoke", Interp_gates.trace_smoke);
    ("serve-smoke", Serve_gates.serve_smoke);
    ("chaos-serve", Chaos_serve.chaos_serve);
    ("procpool-smoke", Serve_gates.procpool_smoke);
    ("kb-smoke", Kb_gates.kb_smoke) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "serve-child"; socket; state; runners; poison_spec; mode ] ->
    Serve_gates.serve_child ~socket ~state ~runners:(int_of_string runners)
      ~poison_spec ~mode
  | [ "worker-child" ] -> Serve.Procpool.worker_main ()
  | [ "kb-job-child"; slice; journal; mode; out ] ->
    Kb_gates.kb_job_child ~slice ~journal ~mode ~out
  | [ "kb-append-child"; dir ] -> Kb_gates.kb_append_child ~dir
  | [] ->
    Printf.printf "RustBrain reproduction benchmark harness (simulated clock; see DESIGN.md)\n";
    Paper.fig7 ();
    Paper.fig89 ();
    Paper.fig10 ();
    Paper.fig11 ();
    Paper.fig12 ();
    Paper.table1 ();
    Paper.fig5 ();
    Paper.ablate ()
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
