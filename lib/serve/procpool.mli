(** Process-isolated runner pool: spawning, wire protocol and worker side.

    Each runner slot fork/execs a hidden worker subcommand of the
    server's own binary and speaks the length-prefixed {!Wire} framing
    over a socketpair dup2'd onto the worker's stdin. One worker process
    runs one job attempt, then exits: rlimit budgets are per-attempt by
    construction and no state bleeds between jobs. A wedged worker can
    always be reclaimed — the watchdog escalation ends in SIGKILL, which
    no userspace state can block — and on Linux a worker also dies with
    its server (parent-death SIGKILL set before exec), so a [kill -9]'d
    server strands no worker, hung or not.

    Protocol, all frames JSON over {!Wire.encode} framing:
    - worker → server: [Hello {pid}] handshake, [Heartbeat] liveness,
      [Case_done] per repaired case (report spliced verbatim, the exact
      bytes the results file stores), [Job_done] only after the durable
      results file is written.
    - server → worker: [Job] (id, backend, cases,
      {!Exec.Campaign_opts.to_wire_json} opts, journal dir, results path,
      poison plan), [Cancel] (the cooperative rung of the escalation
    ladder). EOF on the channel tells the worker its supervisor is gone:
    it exits, so a dead server never strands orphans. *)

type job_spec = {
  id : int;
  backend : string;
  cases : string list;
  opts : Exec.Campaign_opts.t;  (** wire subset ({!Exec.Campaign_opts}) *)
  journal_dir : string;
  results_path : string;
  domains : int option;
  poison : (string * Jobrun.poison_mode) list;
  kb_dir : string option;
      (** per-tenant persistent KB store; server-chosen (never taken off the
          client wire) and carried on this server→worker frame only *)
  kb_readonly : bool;
}

type to_worker = Job of job_spec | Cancel

type to_server =
  | Hello of { pid : int }
  | Heartbeat
  | Case_done of { seq : int; case : string; seed : int; report_json : string }
  | Job_done of {
      cases : int;
      passed : int;
      failed : string option;
      replayed : int;
    }

val to_worker_string : to_worker -> string
val to_worker_of_string : string -> (to_worker, string) result
val to_server_string : to_server -> string
val to_server_of_string : string -> (to_server, string) result

val backoff_delay : failures:int -> Rb_util.Rng.t -> float
(** Respawn delay after the [failures]-th consecutive worker death:
    exponential from 0.25s doubling to a 30s cap, scaled by a seeded
    uniform ±25% jitter draw so crashed workers never respawn in
    lockstep. *)

type worker = {
  pid : int;
  fd : Unix.file_descr;  (** supervisor's socketpair end, nonblocking *)
  dec : Wire.decoder;
  mutable alive : bool;
      (** flips false on EOF/IO error; the process itself is reaped via
          SIGCHLD + [waitpid] *)
}

val spawn :
  argv:string array -> ?mem_mb:int -> ?cpu_s:int -> unit ->
  (worker, string) result
(** Fork/exec [argv] with the socketpair on its stdin. [mem_mb] > 0 caps
    RLIMIT_AS, [cpu_s] > 0 caps RLIMIT_CPU (both applied in the child
    before exec, with the parent-death signal). [Error] is the
    fork/socketpair failure message, including OCaml 5's refusal to fork
    a process that has ever run a second domain; no fd leaks on that
    path. An argv that cannot exec is not an [Error]: the child exits
    127 before its Hello. *)

val send : worker -> to_worker -> bool
(** Best-effort framed write, bounded at ~0.5s: control frames are tiny
    and a healthy worker keeps its socket drained. [false] means the
    worker did not take the frame — exactly the worker the SIGTERM /
    SIGKILL rungs exist for. *)

val worker_main : unit -> 'a
(** The worker process entry point (hidden CLI subcommand): Hello, one
    Job, stream cases, write durable results, Job_done, exit. Never
    returns. *)
