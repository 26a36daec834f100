(** Synthetic many-client load driver for the repair server.

    Spawns one domain per simulated tenant, each holding its own
    connection and submitting jobs back to back; BUSY responses are
    honored by sleeping the server's advised retry-after and resubmitting,
    so a saturated server is exercised through its admission control
    rather than around it. Reports sustained jobs/sec and cases/sec
    ([serve-load]); the committed serve throughput figures come from
    the [benchmark/] harness. *)

type config = {
  socket : string;
  tenants : int;           (** concurrent client domains *)
  jobs_per_tenant : int;
  cases_per_job : int;
      (** at most the corpus size: a job lists distinct cases, and the
          server rejects one that names a case twice *)
  backend : string;
  opts : Exec.Campaign_opts.t option;  (** [None] = server defaults *)
  timeout_s : float;       (** per-receive patience *)
  jitter_seed : int;
      (** seeds the ±25% BUSY retry jitter that breaks the thundering
          herd: without it every rejected tenant sleeps the server's
          exact retry-after and stampedes back in lockstep. Seeded per
          tenant, so a given config replays the same schedule. *)
}

val default_config : config
(** 4 tenants x 4 jobs x 2 cases against ["llm-only"], 120s timeout,
    jitter seed 1. *)

type outcome = {
  submitted : int;
  completed : int;
  busy : int;          (** BUSY responses absorbed (each one retried) *)
  errors : int;
  cases_done : int;
  wall_s : float;
  jobs_per_s : float;
  cases_per_s : float;
  per_tenant : (string * int) list;  (** tenant -> completed jobs *)
}

val outcome_to_json : outcome -> Rb_util.Json.t

val run : config -> outcome
(** Blocks until every tenant finishes its submissions. *)
