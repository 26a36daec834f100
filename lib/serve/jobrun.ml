(* The job-execution core a worker process runs for one job attempt,
   against the server's per-job journal directory. Nothing in it knows
   about processes or sockets, so the same call made directly in a test
   process gives the bytes a worker must reproduce — the procpool-smoke
   gate pins that property. *)

type poison_mode =
  | Poison_exit   (* [Unix._exit]: the runner process dies mid-case *)
  | Poison_hang   (* sleep forever: only the watchdog reclaims the slot *)
  | Poison_raise  (* ordinary exception: isolated as a job failure *)
  | Poison_stop   (* SIGSTOP self: unsignalable by anything but SIGKILL *)
  | Poison_kill   (* SIGKILL self: instant death, no cleanup *)
  | Poison_oom    (* allocate until the address-space rlimit refuses *)

let poison_label = function
  | Poison_exit -> "exit"
  | Poison_hang -> "hang"
  | Poison_raise -> "raise"
  | Poison_stop -> "stop"
  | Poison_kill -> "kill"
  | Poison_oom -> "oom"

let poison_of_label = function
  | "exit" -> Some Poison_exit
  | "hang" -> Some Poison_hang
  | "raise" -> Some Poison_raise
  | "stop" -> Some Poison_stop
  | "kill" -> Some Poison_kill
  | "oom" -> Some Poison_oom
  | _ -> None

let apply_poison = function
  | Poison_exit -> Unix._exit 66
  | Poison_hang ->
    while true do
      Unix.sleepf 3600.0
    done
  | Poison_raise -> raise (Exec.Runner.Aborted "poisoned case")
  | Poison_stop -> Unix.kill (Unix.getpid ()) Sys.sigstop
  | Poison_kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
  | Poison_oom ->
    (* doubling untouched allocations: address space grows geometrically,
       so an RLIMIT_AS cap trips within ~40 iterations; the 1 TiB bound
       keeps an uncapped run from crawling the whole VA space *)
    let chunks = ref [] in
    let total = ref 0 in
    (try
       let n = ref (1 lsl 20) in
       while !total < 1 lsl 40 do
         chunks := Bytes.create !n :: !chunks;
         total := !total + !n;
         n := !n * 2
       done
     with Out_of_memory -> ());
    ignore (List.length !chunks);
    Unix._exit 137

type outcome = {
  reports : Rustbrain.Report.t list;
  job_failed : string option;
  replayed : int;
}

(* Seed fan-out through the domain-parallel scheduler, under the job's own
   write-ahead journal so a killed runner resumes at its frontier. The
   [observe] hook fires when a case is repaired, before it is journaled: a
   crash between the two can re-send a case after resume (at-least-once
   streaming); the durable results file is exactly-once. Seq is derived
   from the case's position, not a counter, so resumed remainders keep
   their absolute positions; the position is looked up by name, which is
   why the server refuses a job that lists a case twice. *)
let execute ~backend ~case_names ~opts ~label ~journal_dir ~domains ~before
    ~cancel ~observe () =
  try
    let runner =
      match Exec.Campaign_opts.runner opts ~backend with
      | Ok r -> r
      | Error e -> failwith e
    in
    let cases =
      List.map
        (fun n ->
          match Dataset.Corpus.find n with
          | Some c -> c
          | None -> failwith (Printf.sprintf "unknown case %S" n))
        case_names
    in
    let case_index = Hashtbl.create 16 in
    List.iteri
      (fun i (c : Dataset.Case.t) ->
        Hashtbl.replace case_index c.Dataset.Case.name i)
      cases;
    let ncases = List.length cases in
    let jobs =
      Exec.Scheduler.seeded_jobs ~label runner
        ~seeds:opts.Exec.Campaign_opts.seeds cases
    in
    let jobs =
      List.mapi
        (fun ji (j : Exec.Scheduler.job) ->
          let seed = Exec.Runner.seed j.Exec.Scheduler.runner in
          let base = ji * ncases in
          let obs (case : Dataset.Case.t) report _stats ~snapshot:_ =
            let seq =
              base
              + Option.value ~default:0
                  (Hashtbl.find_opt case_index case.Dataset.Case.name)
            in
            observe ~seq ~case:case.Dataset.Case.name ~seed
              ~report_json:(Rustbrain.Report.to_json report)
          in
          { j with
            Exec.Scheduler.runner =
              Exec.Runner.instrumented
                (Exec.Runner.guarded j.Exec.Scheduler.runner ~before)
                ~observe:obs })
        jobs
    in
    let run mode =
      Exec.Checkpoint.run ?domains ~cancel ~dir:journal_dir ~mode jobs
    in
    let outcome =
      try run Exec.Checkpoint.Resume
      with Exec.Checkpoint.Fingerprint_mismatch _ ->
        (* journal from another build or a changed corpus: recompute rather
           than refuse — the accepted job must still finish *)
        run Exec.Checkpoint.Fresh
    in
    let reports =
      List.concat_map
        (fun r -> r.Exec.Scheduler.reports)
        outcome.Exec.Checkpoint.results
    in
    let job_failed =
      match Exec.Scheduler.failures outcome.Exec.Checkpoint.results with
      | [] -> None
      | (j, f) :: _ ->
        Some
          (Printf.sprintf "%s: %s" j.Exec.Scheduler.label f.Exec.Scheduler.exn)
    in
    Ok { reports; job_failed; replayed = outcome.Exec.Checkpoint.replayed }
  with e -> Error (Printexc.to_string e)
