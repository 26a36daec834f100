(** The one campaign-options record every driver shares.

    The CLI's [fix], [campaign], [serve] and [serve-ctl submit] take the
    same flags (seed, domain count, fault injection, retries, deadline,
    journal/resume/fresh, trace, metrics, out, KB store), and the serve
    wire protocol carries them too. This record is the single source of
    truth for all of them: the CLI builds one value from one shared
    Cmdliner term, the server parses the same shape off the wire
    ({!of_wire_json}) and persists it in the durable accepted-jobs store,
    and helpers here centralize the derived pieces (backend resolution,
    pipeline config, journal-mode policy). *)

type t = {
  seeds : int list;       (** one campaign per seed; never empty *)
  domains : int option;   (** worker-domain pool; [None] = recommended *)
  fault_rate : float;     (** injected LLM-API fault rate in [0,1] *)
  retries : int;          (** retries per faulted call *)
  deadline_ms : int;      (** per-repair watchdog, 0 = unlimited *)
  journal : string option;(** write-ahead journal directory *)
  resume : bool;
  fresh : bool;
  trace : string option;  (** JSONL trace output file *)
  metrics : bool;         (** print the metrics registry after the run *)
  out : string option;    (** report file (JSONL/CSV), written atomically *)
  kb_dir : string option;
      (** persistent knowledge-base store directory ({!Knowledge.Segment});
          local plumbing like [journal]/[out] — it never travels on the
          client wire (the server chooses its own store), only
          server-to-worker. *)
  kb_readonly : bool;     (** open [kb_dir] snapshot-only, no writer lock *)
}

val default : t

val seed : t -> int
(** First seed — for drivers that run exactly one campaign. *)

val deadline : t -> float option
(** [deadline_ms] as the simulated-seconds watchdog budget. *)

val resilience_overridden : t -> bool
(** Any of fault-rate / retries / deadline differs from {!default}. *)

val validate : t -> (t, string) result
(** Range-check the numeric fields (seeds non-empty, fault rate in [0,1],
    non-negative retries/deadline, positive domain count). *)

val pipeline_config :
  ?base:Rustbrain.Pipeline.config -> t -> Rustbrain.Pipeline.config
(** [base] (default [Pipeline.default_config]) with this record's
    fault-rate / retries / deadline and KB store applied. Seeds are applied
    per job by the scheduler's [with_seed], not here. *)

val runner : t -> backend:string -> (Runner.packed, string) result
(** Resolve a backend name to a packed runner with these options applied.
    Resilience flags are refused on non-rustbrain backends (their clients
    are deliberately un-faulted oracles). *)

val journal_mode : t -> ((string * Checkpoint.mode) option, string) result
(** The journal policy previously open-coded in the CLI: [Ok None] = run
    unjournaled; [Ok (Some (dir, mode))] = run under {!Checkpoint};
    [Error] = refuse (an existing journal is never overwritten unless
    [fresh], and [resume]/[fresh] require a directory and exclude each
    other). *)

(** {2 Wire / durable subset}

    Only the job-shaping fields travel: seeds, domains, fault_rate,
    retries, deadline_ms. Local plumbing (journal/trace/metrics/out) stays
    local — a remote client must not point the server at files. The round
    trip rebuilds a value whose runner config marshals byte-identically,
    so a restarted server resumes a stored job under the same campaign
    fingerprint. *)

val to_wire_json : t -> Rb_util.Json.t

val of_wire_json : Rb_util.Json.t -> (t, string) result
(** Missing fields take {!default}s; mistyped fields are an [Error], as is
    a value {!validate} rejects. Never raises. *)
