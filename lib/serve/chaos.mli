(** Seeded socket chaos harness for the repair server.

    Drives a live server socket through the faults real clients and real
    networks produce — writes split at arbitrary byte boundaries,
    connections dying mid-frame, framing headers that lie, readers that
    stop reading, connection churn — in a reproducible seeded order.
    After every fault a fresh well-behaved connection must get a clean
    STATUS reply: the property under test is that a fault's blast radius
    is one connection, never the event loop.

    Runs in the caller's process and is deterministic by construction:
    the fault sequence and every size/variant choice comes from
    {!Rb_util.Rng}, so a failing seed is a repro, not an anecdote. *)

type fault =
  | Split_write           (** valid frame, written in 1–3-byte dribbles *)
  | Mid_frame_disconnect  (** partial frame, then close *)
  | Garbage_frame         (** zero/oversized declared length, or junk *)
  | Slowloris             (** request replies, never read them *)
  | Churn                 (** connections opened and closed idle *)

val fault_label : fault -> string

val all_faults : fault list

val plan : seed:int -> steps:int -> fault list
(** The fault sequence a given seed produces (same RNG as {!run}). *)

type step_result = {
  step : int;
  fault : fault;
  detail : string;   (** what the fault concretely did *)
  probe_ok : bool;   (** did the post-fault STATUS probe round-trip? *)
}

type outcome = {
  steps : step_result list;
  survived : bool;  (** every probe answered *)
}

val probe : ?timeout_s:float -> string -> bool
(** One clean STATUS round-trip on a fresh connection. *)

val run :
  ?probe_timeout_s:float -> socket:string -> seed:int -> steps:int -> unit ->
  outcome
(** Execute [steps] seeded faults against the server listening on
    [socket], probing after each. *)

(** {1 Worker-fault matrix}

    Faults injected {e inside worker processes} of a worker-mode server
    (via its poison plan), exercising the supervision ladder the socket
    faults above cannot: SIGSTOP (a hung worker no cooperative abort can
    reach — must be SIGKILLed within stall-timeout + grace), SIGKILL
    mid-case (nothing flushed), and rlimit-triggered OOM death. Each
    step asserts the slot is reclaimed, the job is crash-accounted into
    quarantine after exactly the server's [max_crashes] budget, and the
    server answers probes throughout. *)

type worker_fault =
  | Wf_stop  (** worker SIGSTOPs itself mid-job *)
  | Wf_kill  (** worker SIGKILLs itself mid-job *)
  | Wf_oom   (** worker allocates until its memory cap kills it *)

val worker_fault_label : worker_fault -> string
(** ["sigstop"], ["sigkill"], ["oom"] — matching {!Jobrun.poison_label}
    spellings ["stop"], ["kill"], ["oom"] used in server poison plans. *)

val all_worker_faults : worker_fault list

type worker_step = {
  w_fault : worker_fault;
  w_case : string;     (** the case the server's poison plan booby-traps *)
  w_job : int;         (** submitted job id; [-1] if the step never started *)
  w_crashes : int;     (** crash count the quarantine verdict reported *)
  w_reason : string;   (** quarantine reason (names the death signal) *)
  w_reclaimed : bool;  (** no slot still references the job afterwards *)
  w_wall_s : float;    (** submit → quarantine wall time *)
  w_probe_ok : bool;
}

type worker_outcome = {
  w_steps : worker_step list;
  w_pids : int list;   (** every distinct worker pid HEALTH reported —
                           the leak check kills each after server exit
                           and expects ESRCH *)
  w_survived : bool;   (** every step: accepted, quarantined, reclaimed,
                           probe answered *)
}

val run_worker_matrix :
  ?timeout_s:float ->
  socket:string ->
  backend:string ->
  ?opts:Exec.Campaign_opts.t ->
  plan:(worker_fault * string) list ->
  unit ->
  worker_outcome
(** For each [(fault, case)] pair: submit a one-case job naming [case]
    (which the server's poison plan must map to [fault]'s poison), poll
    STATUS until the job is quarantined (bounded by [timeout_s],
    default 60s), then poll HEALTH until no slot references the job.
    Worker pids are harvested from every HEALTH reply along the way. *)
