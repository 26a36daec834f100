(** Blocking client for the repair server's wire protocol.

    A thin synchronous counterpart to the event-driven server: one
    connection, framed sends, timeout-bounded receives. Used by the CLI's
    [serve-ctl] (its [submit] and [results] included) and by the serve
    gates ([serve-smoke], [procpool-smoke], [chaos-serve] through
    {!Chaos}); nothing in it is server-side. *)

type t

val connect :
  ?retries:int -> ?retry_delay_s:float -> string -> (t, string) result
(** Connect to a Unix-domain socket path, retrying while the socket does
    not exist yet or refuses (server still starting). Defaults: 50 retries,
    100ms apart — five seconds of patience. Sets SIGPIPE to ignored for the
    whole process, so writing to a server that has gone away makes
    {!send} return [Error] instead of killing the process. *)

val close : t -> unit

val send : t -> Wire.request -> (unit, string) result
(** Frame and write one request (blocking until fully written). *)

val recv : ?timeout_s:float -> t -> (Wire.response, string) result
(** Next response frame, in stream order; [timeout_s] (default 30s) bounds
    the whole wait. Frames decoded beyond the first are buffered for
    subsequent calls. *)

val request :
  ?timeout_s:float -> t -> Wire.request -> (Wire.response, string) result
(** {!send} then {!recv}. *)

val run_job :
  ?timeout_s:float ->
  ?on_case:(Wire.response -> unit) ->
  t ->
  tenant:string ->
  backend:string ->
  cases:string list option ->
  opts:Exec.Campaign_opts.t option ->
  ((int * int * string option) * Wire.response list, string) result
(** Submit a job and follow its stream to completion. Returns
    [((cases, passed, failed), case_frames)] on DONE; an immediate BUSY or
    REJECTED surfaces as [Error]. [on_case] fires on each CASE frame as it
    arrives (progress reporting). *)
