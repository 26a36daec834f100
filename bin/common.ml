(* What every command family shares: source loading, the campaign-options
   term over [Exec.Campaign_opts] (the same record the serve wire protocol
   carries), the journaled run and the metrics dump. *)

open Cmdliner

let parse_inputs csv =
  if String.trim csv = "" then [||]
  else
    String.split_on_char ',' csv
    |> List.map (fun s -> Int64.of_string (String.trim s))
    |> Array.of_list

(* "a, b,,c" -> ["a"; "b"; "c"] *)
let split_names csv =
  String.split_on_char ',' csv
  |> List.filter_map (fun s ->
       let s = String.trim s in
       if s = "" then None else Some s)

let load path =
  match Rb_util.Fsfile.read path with
  | None -> Error (Printf.sprintf "cannot read %s" path)
  | Some src -> (
    try Ok (Minirust.Parser.parse src) with
    | Minirust.Parser.Parse_error (msg, line) ->
      Error (Printf.sprintf "%s:%d: parse error: %s" path line msg)
    | Minirust.Lexer.Lex_error (msg, line) ->
      Error (Printf.sprintf "%s:%d: lexical error: %s" path line msg))

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
