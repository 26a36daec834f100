(** Job-execution core: one job attempt, as a worker process
    ({!Procpool.worker_main}) runs it against the server's per-job
    journal directory.

    Resolve the backend, wrap each seeded scheduler job with the
    case-boundary guard and the streaming observer, run under
    {!Exec.Checkpoint} (resume at the journal frontier, recompute on a
    fingerprint mismatch), and stitch the reports in seed-major order.
    Nothing here touches processes or sockets, so a direct call with a
    fresh journal directory yields the bytes a worker's results file must
    match — the procpool-smoke gate pins the property. *)

(** Deterministic fault injection for the chaos harness: fires at every
    case boundary inside the worker. Each vector but [Poison_raise]
    kills, stops or hangs only the worker process; the last three are
    the worker-fault matrix. *)
type poison_mode =
  | Poison_exit   (** [Unix._exit]: the runner process dies mid-case *)
  | Poison_hang   (** sleep forever: only the watchdog reclaims the slot *)
  | Poison_raise  (** ordinary exception: isolated as a job failure *)
  | Poison_stop   (** SIGSTOP self: unsignalable by anything but SIGKILL *)
  | Poison_kill   (** SIGKILL self: instant death, no cleanup *)
  | Poison_oom    (** allocate until the address-space rlimit refuses *)

val poison_label : poison_mode -> string
val poison_of_label : string -> poison_mode option
(** Total inverse pair: [poison_of_label (poison_label m) = Some m]. *)

val apply_poison : poison_mode -> unit
(** Execute the fault. [Poison_raise] raises {!Exec.Runner.Aborted};
    the others kill, stop or hang the calling process. *)

type outcome = {
  reports : Rustbrain.Report.t list;
      (** job (seed-major, case-minor) order — the stitched order the
          durable results file stores *)
  job_failed : string option;
  replayed : int;  (** cases replayed from the journal, not recomputed *)
}

val execute :
  backend:string ->
  case_names:string list ->
  opts:Exec.Campaign_opts.t ->
  label:string ->
  journal_dir:string ->
  domains:int option ->
  before:(Dataset.Case.t -> unit) ->
  cancel:(unit -> bool) ->
  observe:(seq:int -> case:string -> seed:int -> report_json:string -> unit) ->
  unit ->
  (outcome, string) result
(** Run one job attempt end to end. [before] fires at every case
    boundary (poison injection and cooperative cancellation live there);
    [observe] fires as each case is repaired, before it is journaled
    (at-least-once streaming; the journal keeps the results file
    exactly-once). [Error] is a whole-attempt failure (unknown backend or
    case, journal damage past healing). Never writes the results file —
    that is the caller's side of the contract. *)
