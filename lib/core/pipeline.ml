type config = {
  model : Llm_sim.Profile.model;
  temperature : float;
  use_kb : bool;
  use_feedback : bool;
  use_cache : bool;
  rollback : Slow_think.rollback_policy;
  enable_replace : bool;
  enable_assert : bool;
  enable_modify : bool;
  enable_abstract : bool;
  max_solutions : int;
  max_iters : int;
  seed : int;
  fault_rate : float;       (* total injected-LLM-fault rate, 0 = oracle API *)
  max_retries : int;        (* retries per faulted call before degrading *)
  deadline : float option;  (* per-repair simulated-seconds budget *)
  kb_dir : string option;   (* persistent KB store directory; None = in-memory *)
  kb_readonly : bool;       (* open the persistent KB without the writer lock *)
}

let default_config =
  {
    model = Llm_sim.Profile.Gpt4;
    temperature = 0.5;
    use_kb = true;
    use_feedback = true;
    use_cache = true;
    rollback = Slow_think.Adaptive;
    enable_replace = true;
    enable_assert = true;
    enable_modify = true;
    enable_abstract = true;
    max_solutions = 3;
    max_iters = 6;
    seed = 1;
    fault_rate = 0.0;
    max_retries = 3;
    deadline = None;
    kb_dir = None;
    kb_readonly = false;
  }

type session = {
  cfg : config;
  sclock : Rb_util.Simclock.t;
  client : Llm_sim.Client.t;
  resilient : Llm_sim.Resilient.t;
  kb : Knowledge.Kb.t option;
  feedback : Feedback.t option;
  rng : Rb_util.Rng.t;
  cache : Miri.Machine.Cache.t;
}

let create_session cfg =
  let sclock = Rb_util.Simclock.create () in
  (* the fault plan (when any) owns its RNG and is seeded off the session
     seed, so a campaign's fault schedule is as reproducible as its choices *)
  let faults =
    if cfg.fault_rate > 0.0 then
      Some
        (Llm_sim.Faults.create
           ~seed:((cfg.seed * 7919) + 13)
           (Llm_sim.Faults.uniform cfg.fault_rate))
    else None
  in
  let client =
    Llm_sim.Client.create ~seed:cfg.seed ?faults ~clock:sclock
      (Llm_sim.Profile.get cfg.model)
  in
  (* graceful degradation target: the cheapest profile, sharing the clock
     but fault-free (a different provider does not share the outage) *)
  let fallback =
    Llm_sim.Client.create ~seed:((cfg.seed * 13) + 5) ~clock:sclock
      (Llm_sim.Profile.get Llm_sim.Profile.Gpt35)
  in
  let resilient =
    Llm_sim.Resilient.create
      ~seed:((cfg.seed * 17) + 29)
      ~config:
        { Llm_sim.Resilient.default_config with
          Llm_sim.Resilient.max_retries = cfg.max_retries;
          deadline = cfg.deadline }
      ~fallback client
  in
  let kb =
    if not cfg.use_kb then None
    else
      match cfg.kb_dir with
      | None ->
        let kb = Knowledge.Kb.create ~clock:sclock () in
        Knowledge.Kb.seed_default kb;
        Some kb
      | Some dir -> (
        (* shared persistent store: the query snapshot is frozen at open, so
           this campaign is deterministic whatever other campaigns append *)
        match
          Knowledge.Kb.open_dir ~readonly:cfg.kb_readonly ~dir ~clock:sclock ()
        with
        | Ok kb -> Some kb
        | Error msg ->
          failwith (Printf.sprintf "knowledge base at %s: %s" dir msg))
  in
  let feedback = if cfg.use_feedback then Some (Feedback.create ()) else None in
  { cfg; sclock; client; resilient; kb; feedback;
    rng = Rb_util.Rng.create (cfg.seed * 31 + 7);
    cache = Miri.Machine.Cache.create ~enabled:cfg.use_cache () }

let clock s = s.sclock
let config s = s.cfg
let llm_stats s = Llm_sim.Client.stats s.client
let resilience s = s.resilient
let verification_cache s = s.cache
let kb_resolves s = Option.fold ~none:true ~some:Knowledge.Kb.resolves s.kb

(* restrict a plan to the enabled agents *)
let filter_solution cfg (solution : Solution.t) : Solution.t =
  let keep = function
    | Solution.Abstract -> cfg.enable_abstract
    | Solution.Fix Ub_class.C_replace -> cfg.enable_replace
    | Solution.Fix Ub_class.C_assert -> cfg.enable_assert
    | Solution.Fix Ub_class.C_modify -> cfg.enable_modify
  in
  { solution with Solution.steps = List.filter keep solution.Solution.steps }

(* Domain-local memo of collect-mode runs of *canonical* buggy programs.
   Node ids restart per repair (scoped_ids) and verification is id-neutral,
   so the buggy parse of a given case carries identical ids in every
   session: its run results are reproducible and safe to share across the
   sessions a domain executes. Keyed on both sources (the reference is
   parsed first and shifts the buggy parse's id origin) plus the run
   config. *)
let canonical_run_memo :
    (string, Miri.Machine.run_result) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 128)

let run_config_key (c : Miri.Machine.config) =
  Printf.sprintf "%s|%d|%d|%b|%d|%d|%s|%s"
    (match c.Miri.Machine.mode with
    | Miri.Machine.Stop_first -> "S"
    | Miri.Machine.Collect n -> "C" ^ string_of_int n)
    c.Miri.Machine.seed c.Miri.Machine.max_steps c.Miri.Machine.trace
    c.Miri.Machine.max_allocs c.Miri.Machine.max_alloc_bytes
    (* the engines are observationally identical, so sharing entries would
       be sound; keying on the engine keeps the memo trivially exact *)
    (match c.Miri.Machine.engine with
    | Miri.Machine.Bytecode -> "B"
    | Miri.Machine.Tree_walk -> "T")
    (String.concat "," (Array.to_list (Array.map Int64.to_string c.Miri.Machine.inputs)))

(* Memoizing stand-in for [Miri.Machine.run], valid only for the canonical
   [buggy] parse of [case] (compared physically). *)
let make_runner session (case : Dataset.Case.t) buggy program info config =
  if program == buggy && Miri.Machine.Cache.enabled session.cache then begin
    let tbl = Domain.DLS.get canonical_run_memo in
    let key =
      String.concat "\x00"
        [ run_config_key config; case.Dataset.Case.fixed_src;
          case.Dataset.Case.buggy_src ]
    in
    match Hashtbl.find_opt tbl key with
    | Some r ->
      Miri.Machine.Cache.record_hit session.cache;
      r
    | None ->
      Miri.Machine.Cache.record_miss session.cache;
      (* whether this miss happens at all depends on which jobs this
         domain executed before (the memo outlives sessions), so the run
         must not emit trace events or metrics: campaign traces stay
         byte-identical whatever the job/domain interleaving. The
         enclosing "interpret" span still accounts for detection. *)
      let r =
        Obs.Trace.without_ambient (fun () ->
            Obs.Metrics.with_registry (Obs.Metrics.create ()) (fun () ->
                Miri.Machine.run ~config program info))
      in
      Hashtbl.add tbl key r;
      r
  end
  else Miri.Machine.run ~config program info

let make_env session (case : Dataset.Case.t) ~buggy : Env.t =
  {
    Env.clock = session.sclock;
    client = session.client;
    sampling = { Llm_sim.Client.temperature = session.cfg.temperature };
    kb = session.kb;
    scorer = Dataset.Semantic.score ~cache:session.cache case;
    reference = Some (Dataset.Case.fixed case);
    probes = case.Dataset.Case.probes;
    ref_panics =
      (* the reference observations double as the panic profile, so a warm
         cache skips the reference runs (and re-parses) entirely *)
      List.map
        (fun (o : Dataset.Semantic.observation) -> o.Dataset.Semantic.panicked)
        (Dataset.Semantic.reference_observations ~cache:session.cache case);
    rng = session.rng;
    resilient = Some session.resilient;
    runner = Some (make_runner session case buggy);
  }

let program_env session ~probe ~scorer : Env.t =
  {
    Env.clock = session.sclock;
    client = session.client;
    sampling = { Llm_sim.Client.temperature = session.cfg.temperature };
    kb = session.kb;
    scorer;
    reference = None;
    probes = [ probe ];
    ref_panics = [ false ];
    rng = session.rng;
    resilient = Some session.resilient;
    runner = None;
  }

type attempt = {
  at_exec : Slow_think.execution;
  at_solution : Solution.t;
  at_semantic : bool;
}

(* final verdict: full multi-probe pass/exec check, charged per probe *)
let judge session env (case : Dataset.Case.t) program =
  Obs.Trace.in_span "re-verify"
    ~attrs:(fun () ->
      [ ("probes", Obs.Trace.I (List.length case.Dataset.Case.probes)) ])
    ~post:(fun (v : Dataset.Semantic.verdict) ->
      [ ("passes", Obs.Trace.B v.Dataset.Semantic.passes);
        ("semantic", Obs.Trace.B v.Dataset.Semantic.semantic) ])
    (fun () ->
      List.iter
        (fun _ -> Rb_util.Simclock.charge env.Env.clock (Env.verify_cost program))
        case.Dataset.Case.probes;
      Dataset.Semantic.check ~cache:session.cache case program)

let repair_common session (case : Dataset.Case.t) (solutions_override : Solution.t list option) :
    Report.t =
  (* Node ids restart at a fixed origin for every repair, so id-bearing
     strings (edit labels, traces) — and therefore the whole Report — are
     identical whether campaigns run sequentially or sharded across
     domains. *)
  Minirust.Ast.scoped_ids @@ fun () ->
  let cfg = session.cfg in
  (* trace timestamps follow this session's simulated clock; installed per
     repair so Marshal-restored (resumed) sessions re-anchor correctly *)
  Obs.Trace.set_ambient_time_source (fun () ->
      Rb_util.Simclock.now session.sclock);
  (* the buggy parse comes first, straight after the id reset: its node ids
     are then a pure function of the case source — canonical per case — which
     is what makes the cross-session run memo in [make_runner] sound *)
  let buggy =
    Obs.Trace.in_span "parse"
      ~attrs:(fun () -> [ ("case", Obs.Trace.S case.Dataset.Case.name) ])
      (fun () -> Dataset.Case.buggy case)
  in
  let env = make_env session case ~buggy in
  (* open the per-repair deadline window and clear the degradation flags;
     resilience stats are cumulative per session, so deltas are taken *)
  Llm_sim.Resilient.start_repair session.resilient;
  let rstats = Llm_sim.Resilient.stats session.resilient in
  let retries0 = rstats.Llm_sim.Resilient.retries in
  let faults0 = rstats.Llm_sim.Resilient.faults in
  let trips0 = rstats.Llm_sim.Resilient.breaker_trips in
  let start = Rb_util.Simclock.now session.sclock in
  let calls0 = (Llm_sim.Client.stats session.client).Llm_sim.Client.calls in
  (* F1: detection — shares the canonical-run memo with the first slow-think
     verification of every solution, which re-checks this same program *)
  Rb_util.Simclock.charge session.sclock (Env.verify_cost buggy);
  let inputs = match case.Dataset.Case.probes with [] -> [||] | p :: _ -> p in
  let detect_config =
    { Miri.Machine.default_config with
      Miri.Machine.mode = Miri.Machine.Collect 25; seed = 42; max_steps = 200_000;
      inputs; trace = false }
  in
  let run_result =
    match Obs.Trace.in_span "typecheck" (fun () -> Minirust.Typecheck.check buggy) with
    | Ok info ->
      Obs.Trace.in_span "interpret"
        ~post:(fun (r : Miri.Machine.run_result) ->
          [ ("steps", Obs.Trace.I r.Miri.Machine.steps);
            ("errors", Obs.Trace.I r.Miri.Machine.error_count) ])
        (fun () -> make_runner session case buggy buggy info detect_config)
    | Error _ ->
      (* corpus programs always compile; treat as an immediate failure *)
      { Miri.Machine.outcome = Miri.Machine.Step_limit; output = []; diags = [];
        steps = 0; error_count = 1; events = [] }
  in
  let features = Features.extract buggy run_result in
  (* F2: fast thinking *)
  let generation =
    match solutions_override with
    | Some solutions -> { Fast_think.solutions; feedback_hit = None }
    | None ->
      Obs.Trace.in_span "fast-think"
        ~post:(fun (g : Fast_think.generation) ->
          [ ("solutions", Obs.Trace.I (List.length g.Fast_think.solutions));
            ("feedback_hit", Obs.Trace.B (g.Fast_think.feedback_hit <> None)) ])
        (fun () ->
          Fast_think.generate env ~program:buggy ~features
            ~feedback:session.feedback ~abstract_enabled:cfg.enable_abstract
            ~count:cfg.max_solutions)
  in
  let solutions =
    List.filter
      (fun s -> s.Solution.steps <> [])
      (List.map (filter_solution cfg) generation.Fast_think.solutions)
  in
  (* feedback recall enriches the prompt for all subsequent agent calls *)
  let prompt_extras =
    match generation.Fast_think.feedback_hit with
    | Some hit -> [ (Llm_sim.Prompt.sec_feedback, Feedback.to_prompt_section hit) ]
    | None -> []
  in
  (* S1–S2: execute solutions until one is semantically acceptable; every
     agent call sees the fast-thinking features (and recalled feedback) *)
  let base_extras =
    (Llm_sim.Prompt.sec_features, Features.to_prompt_section features) :: prompt_extras
  in
  let rec try_solutions acc = function
    | [] -> acc
    | _ :: _ when Llm_sim.Resilient.deadline_exceeded session.resilient ->
      (* watchdog: the repair budget is gone — skip the remaining
         slow-thinking iterations instead of burning simulated hours *)
      Llm_sim.Resilient.note_deadline_skip session.resilient;
      acc
    | solution :: rest ->
      let exec =
        Obs.Trace.in_span "slow-think"
          ~attrs:(fun () ->
            [ ("solution", Obs.Trace.S solution.Solution.sname) ])
          ~post:(fun (e : Slow_think.execution) ->
            [ ("passed", Obs.Trace.B e.Slow_think.passed);
              ("iterations", Obs.Trace.I e.Slow_think.iterations);
              ("rollbacks", Obs.Trace.I e.Slow_think.rollbacks);
              ("errors", Obs.Trace.I e.Slow_think.errors) ])
          (fun () ->
            Slow_think.execute ~prompt_extras:base_extras env ~program:buggy
              ~solution ~rollback:cfg.rollback ~max_iters:cfg.max_iters)
      in
      let verdict =
        if exec.Slow_think.passed then judge session env case exec.Slow_think.final
        else { Dataset.Semantic.passes = false; semantic = false; per_probe = [] }
      in
      let attempt =
        { at_exec = exec; at_solution = solution; at_semantic = verdict.Dataset.Semantic.semantic }
      in
      let acc = attempt :: acc in
      if verdict.Dataset.Semantic.semantic then acc else try_solutions acc rest
  in
  let attempts = List.rev (try_solutions [] solutions) in
  (* pick the best attempt: semantic > passed > fewest errors *)
  let best =
    List.fold_left
      (fun best a ->
        match best with
        | None -> Some a
        | Some b ->
          let score x =
            (if x.at_semantic then 4 else 0)
            + (if x.at_exec.Slow_think.passed then 2 else 0)
            - min 1 x.at_exec.Slow_think.errors
          in
          if score a > score b then Some a else Some b)
      None attempts
  in
  let passed, semantic, winning, n_sequence, iterations, rollbacks, trace =
    match best with
    | None -> (false, false, None, [], 0, 0, [])
    | Some a ->
      let v = judge session env case a.at_exec.Slow_think.final in
      ( v.Dataset.Semantic.passes,
        v.Dataset.Semantic.semantic,
        Some a.at_solution.Solution.sname,
        a.at_exec.Slow_think.n_sequence,
        List.fold_left (fun n at -> n + at.at_exec.Slow_think.iterations) 0 attempts,
        List.fold_left (fun n at -> n + at.at_exec.Slow_think.rollbacks) 0 attempts,
        a.at_exec.Slow_think.trace )
  in
  (* S3: learn from success *)
  (match best with
  | Some a when semantic ->
    let vec = Features.vector buggy features in
    let winning_class =
      List.fold_left
        (fun acc step -> match step with Solution.Fix c -> Some c | _ -> acc)
        None a.at_solution.Solution.steps
    in
    (match session.feedback with
    | Some fb ->
      Feedback.learn fb vec
        { Feedback.category = case.Dataset.Case.category; plan = a.at_solution; winning_class }
    | None -> ());
    (* a persistent KB additionally accumulates cross-campaign expertise;
       its open snapshot is frozen, so this never perturbs the current
       campaign's retrieval (in-memory KBs keep their historical
       seed-only content) *)
    (match session.kb with
    | Some kb when Knowledge.Kb.persistent_dir kb <> None ->
      let recommended =
        match winning_class with
        | Some Ub_class.C_replace -> Repairs.Rule.Replace
        | Some Ub_class.C_assert -> Repairs.Rule.Assert
        | Some Ub_class.C_modify | None -> Repairs.Rule.Modify
      in
      let advice =
        Printf.sprintf
          "a prior %s case (%s) was repaired by the %s plan; try its fix class first"
          (Miri.Diag.kind_name case.Dataset.Case.category)
          case.Dataset.Case.name a.at_solution.Solution.sname
      in
      Knowledge.Kb.learn kb vec
        { Knowledge.Kb.category = case.Dataset.Case.category; advice; recommended }
    | _ -> ())
  | _ -> ());
  let stats = Llm_sim.Client.stats session.client in
  let report =
  {
    Report.case_name = case.Dataset.Case.name;
    category = case.Dataset.Case.category;
    passed;
    semantic;
    seconds = Rb_util.Simclock.now session.sclock -. start;
    llm_calls = stats.Llm_sim.Client.calls - calls0;
    tokens = stats.Llm_sim.Client.tokens_in + stats.Llm_sim.Client.tokens_out;
    iterations;
    solutions_tried = List.length attempts;
    rollbacks;
    n_sequence;
    winning_solution = winning;
    feedback_hit = generation.Fast_think.feedback_hit <> None;
    retries = rstats.Llm_sim.Resilient.retries - retries0;
    faults = rstats.Llm_sim.Resilient.faults - faults0;
    breaker_trips = rstats.Llm_sim.Resilient.breaker_trips - trips0;
    degraded = Llm_sim.Resilient.degraded session.resilient;
    gave_up = Llm_sim.Resilient.gave_up session.resilient && not passed;
    trace;
  }
  in
  Obs.Metrics.inc "repairs.total";
  if report.Report.passed then Obs.Metrics.inc "repairs.passed";
  if report.Report.semantic then Obs.Metrics.inc "repairs.semantic";
  if report.Report.degraded then Obs.Metrics.inc "repairs.degraded";
  if report.Report.gave_up then Obs.Metrics.inc "repairs.gave_up";
  Obs.Metrics.inc ~by:report.Report.llm_calls "repairs.llm_calls";
  Obs.Metrics.inc ~by:report.Report.retries "repairs.retries";
  Obs.Metrics.inc ~by:report.Report.faults "repairs.faults";
  Obs.Metrics.observe_s "repair.seconds" report.Report.seconds;
  Obs.Trace.note "repair" (fun () ->
      [ ("case", Obs.Trace.S report.Report.case_name);
        ("passed", Obs.Trace.B report.Report.passed);
        ("semantic", Obs.Trace.B report.Report.semantic);
        ("seconds", Obs.Trace.F report.Report.seconds);
        ("llm_calls", Obs.Trace.I report.Report.llm_calls);
        ("solutions", Obs.Trace.I report.Report.solutions_tried) ]);
  report

let repair session case = repair_common session case None

let repair_with_solution session case solution =
  repair_common session case (Some [ solution ])

let run_campaign cfg cases =
  let session = create_session cfg in
  List.map (repair session) cases
