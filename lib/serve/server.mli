(** Event-driven repair campaign server.

    One single-threaded [Unix.select] event loop owns the listening
    Unix-domain socket, every client connection, the {!Fairq} admission
    queue and the durable {!Store}; repair jobs run on a supervised pool
    of worker OS processes ({!Procpool} — at most [runners] concurrent
    jobs, each internally domain-parallel via [Exec.Checkpoint.run]).
    The loop never blocks on a job: workers stream CASE frames and
    heartbeats over their control socketpairs, folded into the same
    [select] as the client sockets, and a SIGCHLD self-pipe wakes the
    loop the instant a worker dies.

    Durability contract: a job is ACCEPTED only after its submission record
    is fsynced into the store, each job runs under its own write-ahead
    journal, and a server restarted on the same state directory re-enqueues
    every accepted-but-unfinished job before opening its socket — repairs
    already journaled are replayed, not recomputed, and the stitched
    results file is byte-identical to an uninterrupted run's. Startup runs
    the {!Store.fsck} scrub, so a damaged state dir degrades to classified,
    contained damage — never a failure to boot.

    Supervision: a per-slot watchdog targets jobs that stall past
    [stall_timeout_s] without completing a case or run past the
    [job_timeout_s] wall ceiling, escalating cooperative Cancel frame →
    SIGTERM (at half the grace) → SIGKILL (at the full grace). SIGKILL is
    unconditional: a SIGSTOP'd, hard-looping or OOM-thrashing worker is
    reclaimed within [stall_timeout_s + abandon_grace_s], always. Each
    worker runs exactly one job attempt under optional OS resource caps
    (RLIMIT_AS from [worker_mem_mb], RLIMIT_CPU from [job_timeout_s]),
    then exits; on Linux it also dies with the server (parent-death
    SIGKILL), so a [kill -9]'d server strands no worker. Dead workers
    respawn under seeded-jitter exponential backoff. A crashed or killed
    attempt requeues the job at its journal frontier; a job that spends
    its [max_crashes] budget — counted durably, across whole-server
    kills — is quarantined as poison with its journal preserved for
    triage.

    Worker processes are the only way a job runs. If spawning keeps
    failing (no fork, an argv that cannot exec), the slots stay [down]
    under the same backoff and HEALTH shows it; SUBMIT still admits jobs
    durably, and they wait in the queue until a worker comes up. The
    server never drops isolation to run a job in its own process.

    Admission control: a full queue or an over-quota tenant gets an
    explicit BUSY frame carrying a retry-after hint derived from an EWMA of
    per-job service time scaled by the backlog — callers are told to back
    off instead of being buffered unboundedly or silently dropped. Every
    reply goes through a bounded per-connection outbound buffer; a client
    that stops reading (slowloris) or overflows the bound is evicted — the
    durable results file makes that safe. *)

(** Deterministic fault injection for the chaos harness: fires at every
    case boundary inside the worker process. *)
type poison_mode = Jobrun.poison_mode =
  | Poison_exit   (** [Unix._exit 66]: the runner process dies mid-job *)
  | Poison_hang   (** sleep forever: only the watchdog reclaims the slot *)
  | Poison_raise  (** ordinary exception: isolated as a job failure *)
  | Poison_stop   (** SIGSTOP itself: unsignallable except by SIGKILL *)
  | Poison_kill   (** SIGKILL itself: instant death, nothing flushed *)
  | Poison_oom    (** allocate until RLIMIT_AS (or a bound) kills it *)

type config = {
  socket : string;           (** Unix-domain socket path to bind *)
  state_dir : string;        (** {!Store} root; survives restarts *)
  runners : int;             (** concurrent job slots (worker processes) *)
  domains_per_job : int option;
      (** scheduler width for jobs whose opts leave [domains] unset *)
  max_queue : int;           (** bounded inbound queue (jobs) *)
  quota : int;               (** max queued jobs per tenant *)
  weights : (string * int) list;  (** fair-queue tenant weights *)
  default_opts : Exec.Campaign_opts.t;
      (** applied when SUBMIT carries no opts *)
  tick_s : float;            (** select timeout; watchdog-poll cadence *)
  max_crashes : int;
      (** crash budget before a job is quarantined as poison *)
  stall_timeout_s : float;
      (** watchdog: max wall seconds between completed cases *)
  job_timeout_s : float;     (** watchdog: wall ceiling per job attempt;
                                 also sizes the worker RLIMIT_CPU cap *)
  abandon_grace_s : float;
      (** wall seconds from the cooperative abort to SIGKILL (SIGTERM
          fires halfway) *)
  out_limit : int;           (** per-connection outbound buffer bound, bytes *)
  evict_idle_s : float;
      (** evict a connection with pending output whose socket has taken
          nothing for this long *)
  poison : (string * poison_mode) list;
      (** chaos plan, case name -> fault fired at its case boundary;
          declarative so it serializes into worker Job frames *)
  worker_argv : string array;
      (** worker-process command line: a binary whose argv dispatches to
          {!Procpool.worker_main} *)
  worker_mem_mb : int;       (** RLIMIT_AS cap per worker, MiB; 0 = none *)
  rng_seed : int;            (** seeds respawn-backoff jitter *)
  kb_dir : string option;
      (** root of the shared persistent knowledge store; each tenant gets
          the [<kb_dir>/<tenant>] slice, so tenants never retrieve each
          other's learned entries. [None] = jobs keep in-memory KBs. *)
  kb_readonly : bool;
      (** open tenant slices snapshot-only (default [true]): concurrent
          worker processes cannot share the single-writer lock, and a
          missing slice just runs the job KB-less. Set [false] only on a
          single-runner server that should accumulate learned entries. *)
  trace : Obs.Trace.t option;
  metrics : Obs.Metrics.registry option;
}

val default_config : config
(** socket ["rustbrain.sock"], state dir ["serve-state"], 2 runners,
    queue bound 128, quota 64, 20ms tick; crash budget 3, 5min stall /
    1h job watchdog, 1s abandon grace, 8 MiB outbound bound, 30s
    eviction; no poison, workers re-exec the running binary as
    [[| Sys.executable_name; "__rb_worker" |]] (the CLI's hidden worker
    subcommand), no memory cap, seed [0x5eed], no trace/metrics. *)

type summary = {
  accepted : int;
  completed : int;
  failed : int;
  cancelled : int;
  busy : int;        (** submissions turned away with BUSY *)
  rejected : int;    (** submissions refused as invalid *)
  resumed : int;     (** jobs re-enqueued from the store at startup *)
  left_queued : int; (** still-durable jobs left for the next start *)
  quarantined : int; (** jobs moved to quarantine this run *)
  requeued : int;    (** watchdog/crash requeues this run *)
  evicted : int;     (** connections dropped for slow reading or overflow *)
}

val run : ?on_ready:(string -> unit) -> config -> summary
(** Run the server until a SHUTDOWN frame arrives and in-flight jobs have
    drained (queued-but-unstarted jobs stay durable for the next start),
    or until a DRAIN frame's graceful wind-down completes: admission
    closes, the queue and in-flight slots finish, every connection is
    flushed, then the loop exits. On either exit path every worker
    process is terminated (SIGTERM, short grace, SIGKILL) and reaped —
    no children outlive the server. [on_ready] is called with the socket
    path once it is bound and listening — the hook tests and the smoke
    gate use to know when to connect. Installs [SIGPIPE] ignore and
    [SIGCHLD] self-pipe handlers for the duration, restoring the previous
    handlers on exit. Call it from a process that has never run a second
    domain: OCaml 5 refuses [Unix.fork] there, and every slot would stay
    down. *)
