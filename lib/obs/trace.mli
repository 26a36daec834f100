(** Structured tracing: typed span/event records to a pluggable sink.

    Timestamps come from the simulated clock of whatever session is
    running ({!set_time_source}), so a seeded campaign's trace is
    byte-identical run to run. Wall-clock durations are measured only by
    sinks created with [~wall:true] (interactive [fix --profile]); a
    campaign sink stays sim-time-only and therefore deterministic.

    Instrumentation sites never hold a sink: they consult the ambient
    domain-local sink ({!ambient}) through the gated helpers {!in_span}
    and {!note}, which cost a DLS read and a [None] match when tracing is
    off — no attribute closures run, nothing is formatted. *)

type value = I of int | F of float | S of string | B of bool

type attrs = (string * value) list

type kind = Span | Event

type record = {
  kind : kind;
  name : string;
  t : float;       (** start time on the simulated clock, seconds *)
  dur : float;     (** simulated duration; [0.] for events *)
  wall_ms : float; (** wall-clock ms; [0.] unless the sink is wall-enabled *)
  attrs : attrs;
}

type t
(** A live sink. *)

(** {1 Sinks} *)

val null : unit -> t
(** Swallows every record. The ambient default is no sink at all, so this
    exists mainly for tests and tee partners. *)

val memory : ?wall:bool -> unit -> t * (unit -> record list)
(** In-memory buffer and a getter returning records in emission order. *)

val file : ?wall:bool -> string -> t
(** Buffers JSONL lines; {!close} writes the file atomically via
    [Rb_util.Fsfile.write_channel]. *)

val tee : t -> t -> t
(** Every record to both sinks; wall-enabled if either side is. *)

val close : t -> unit
(** Flush/finalize (writes the file for {!file} sinks). Idempotent. *)

val wall_enabled : t -> bool

(** {1 Time} *)

val set_time_source : t -> (unit -> float) -> unit
(** Install the simulated-clock reader for subsequent records (default
    always returns [0.]). A repair session installs its own clock here. *)

val set_ambient_time_source : (unit -> float) -> unit
(** {!set_time_source} on the ambient sink, if any. *)

(** {1 Ambient sink} *)

val ambient : unit -> t option
val with_ambient : t -> (unit -> 'a) -> 'a
(** Install [t] as this domain's ambient sink for the call (restored on
    exit, exceptions included). *)

val without_ambient : (unit -> 'a) -> 'a
(** Run with no ambient sink — for work whose very occurrence is
    nondeterministic (e.g. populating a cross-session memo, which depends
    on which jobs a domain happened to run first) and must therefore stay
    invisible to deterministic traces. *)

(** {1 Emission} *)

val emit : t -> record -> unit

val event : t -> ?attrs:attrs -> string -> unit
(** Emit an event stamped with the sink's current time. *)

val span :
  t -> ?attrs:(unit -> attrs) -> ?post:('a -> attrs) -> string ->
  (unit -> 'a) -> 'a
(** [span t name f] runs [f], emitting one [Span] record on completion
    covering its simulated duration (and wall ms when enabled). [attrs]
    is forced only at completion; [post] derives attributes from the
    result. If [f] raises, the span is still emitted with a
    [("raised", B true)] attribute and the exception rethrown. *)

val in_span :
  ?attrs:(unit -> attrs) -> ?post:('a -> attrs) -> string ->
  (unit -> 'a) -> 'a
(** {!span} against the ambient sink; just runs [f] when tracing is off. *)

val note : string -> (unit -> attrs) -> unit
(** {!event} against the ambient sink; the attribute closure never runs
    when tracing is off. *)

(** {1 JSONL} *)

val to_jsonl : ?wall:bool -> record -> string
(** One JSON object, no trailing newline. [wall] (default false) includes
    the [wall_ms] field — campaign traces leave it out to stay
    deterministic. *)

val of_jsonl : string -> (record, string) Stdlib.result
