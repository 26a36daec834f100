(** The RustBrain pipeline: detection (F1), fast thinking (F2), slow-thinking
    multi-agent execution (S1–S2), and feedback/self-learning (S3).

    A {!session} carries the state shared across a repair campaign — the
    simulated clock, the LLM client, the optional knowledge base, and the
    feedback store — so that repairs of similar errors get cheaper over a
    run, exactly as the paper's Table I "red sections" describe.

    Every configuration toggle the paper ablates is here: per-agent
    enablement and order (Fig. 7), knowledge base (Figs. 8/9, Table I),
    feedback, rollback policy (Fig. 5), model and temperature (Figs. 8–11),
    solution and iteration budgets. *)

type config = {
  model : Llm_sim.Profile.model;
  temperature : float;
  use_kb : bool;
  use_feedback : bool;
  use_cache : bool;
      (** memoize oracle verification runs (semantically transparent; see
          {!Miri.Machine.Cache}) *)
  rollback : Slow_think.rollback_policy;
  enable_replace : bool;
  enable_assert : bool;
  enable_modify : bool;
  enable_abstract : bool;
  max_solutions : int;  (** fast-thinking solutions to try (paper: up to 10) *)
  max_iters : int;      (** slow-thinking agent attempts per solution *)
  seed : int;
  fault_rate : float;
      (** total injected LLM-API fault rate in [0,1], spread uniformly over
          timeout / rate-limit / 5xx / truncated / malformed; [0.] leaves the
          client a perfect oracle and every report byte-identical to a
          pre-resilience run *)
  max_retries : int;        (** retries per faulted call before degrading *)
  deadline : float option;  (** per-repair simulated-seconds watchdog budget *)
  kb_dir : string option;
      (** persistent knowledge base: a {!Knowledge.Segment} store shared
          across campaigns and serve tenants. The session opens a frozen
          snapshot (deterministic retrieval regardless of concurrent
          appends) and, when writable, appends what S3 learns for future
          sessions. [None] (the default) keeps the historical in-memory,
          seed-only KB. *)
  kb_readonly : bool;
      (** open [kb_dir] without the single-writer lock: queries work,
          learned entries are dropped. Required when many worker processes
          share one store. *)
}

val default_config : config
(** GPT-4, temperature 0.5, all agents, adaptive rollback, KB and feedback
    on, 3 solutions x 6 iterations, seed 1, no faults. *)

type session

val create_session : config -> session

val clock : session -> Rb_util.Simclock.t
val config : session -> config
val llm_stats : session -> Llm_sim.Client.stats

val resilience : session -> Llm_sim.Resilient.t
(** The session's retry/breaker wrapper (cumulative stats; reports carry
    per-repair deltas). *)

val verification_cache : session -> Miri.Machine.Cache.t
(** The session's verification memo-cache (hit/miss counters feed the
    bench perf report; disabled when [config.use_cache] is false). *)

val kb_resolves : session -> bool
(** Whether the session's knowledge base still resolves in this process
    ({!Knowledge.Kb.resolves}; true without a KB). Asked of a session
    restored from a snapshot before it carries on. *)

val program_env :
  session -> probe:int64 array -> scorer:(Minirust.Ast.program -> float) ->
  Env.t
(** An environment for repairing a program that is not a corpus case and
    so has no developer reference: the session's clock, client, KB, RNG
    and resilience wrapper, one probe input, no reference panics, and
    [scorer] as the oracle. *)

val repair : session -> Dataset.Case.t -> Report.t
(** Run the full pipeline on one case. *)

val repair_with_solution : session -> Dataset.Case.t -> Solution.t -> Report.t
(** Force a single externally-supplied solution plan (used by the Fig. 7
    flexibility experiment, which enumerates explicit agent orders). *)

val run_campaign : config -> Dataset.Case.t list -> Report.t list
(** Fresh session, repair each case in order. *)
