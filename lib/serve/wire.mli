(** Length-prefixed JSON wire protocol for the repair server.

    Framing: every message is a 4-byte big-endian payload length followed
    by that many bytes of UTF-8 JSON — the shape of the mio protocol
    walkthroughs, chosen because it survives arbitrary read boundaries: a
    {!decoder} fed one byte at a time yields exactly the frames a single
    read would. Declared lengths are bounded ({!default_max_frame}); an
    oversized or non-positive length is a protocol violation that poisons
    the decoder (length-prefixed streams cannot resynchronize after a bad
    header), and the server answers it by dropping that one connection —
    never by dying.

    Grammar (one JSON object per frame):
    {v
    request  := {"type":"submit","tenant":T,"backend":B,"cases":[..]?,"opts":{..}}
              | {"type":"status","id":N?} | {"type":"cancel","id":N}
              | {"type":"results","id":N} | {"type":"shutdown"}
              | {"type":"drain"} | {"type":"health"}
    response := {"type":"accepted","id":N,"queued":Q}
              | {"type":"busy","reason":R,"retry_after_ms":MS}
              | {"type":"rejected","reason":R}
              | {"type":"job","id":N,"state":...}
              | {"type":"server","queued":..,"running":..,...}
              | {"type":"case","id":N,"seq":K,"case":C,"seed":S,"report":{..}}
              | {"type":"done","id":N,"cases":C,"passed":P,"failed":M?}
              | {"type":"quarantined","id":N,"crashes":K,"reason":R,"last_case":C?}
              | {"type":"shutting-down","active":A,"queued":Q}
              | {"type":"draining","active":A,"queued":Q}
              | {"type":"health","queued":..,"running":..,"quarantined":..,
                 "draining":B,"slots":[{"slot":I,"state":S},..]}
              | {"type":"error","msg":M}
    v}
    The ["report"] member of a [case] frame is a verbatim
    [Rustbrain.Report.to_json] object — same versioned codec as journal
    segments and [--out] files. *)

(** {1 Framing} *)

val default_max_frame : int
(** 1 MiB. *)

val encode : string -> string
(** Prefix a payload with its 4-byte big-endian length. *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder

val feed : decoder -> Bytes.t -> int -> int -> (string list, string) result
(** [feed d chunk pos len] consumes [len] bytes and returns every complete
    payload they finish, in stream order; partial frames are buffered for
    the next feed. [Error] is a protocol violation (bad declared length);
    the decoder is poisoned — frames completed before the violation are
    still returned once, the error surfaces from then on. *)

val buffered : decoder -> int
(** Bytes currently buffered awaiting a complete frame. *)

(** {1 Messages} *)

type request =
  | Submit of {
      tenant : string;
      backend : string;
      cases : string list option;
          (** [None] = whole corpus; the server answers {!Rejected} for an
              unknown case or a case listed twice *)
      opts : Exec.Campaign_opts.t option;
          (** wire subset; [None] = the server's configured defaults *)
    }
  | Status of int option  (** [None] = whole-server status *)
  | Cancel of int
  | Results of int        (** re-stream a finished job's durable reports *)
  | Shutdown
  | Drain
      (** stop admitting, finish everything queued and in flight, flush
          every connection, then exit — the graceful fleet-rotation verb
          ({!Shutdown} by contrast leaves queued jobs durable for the next
          process) *)
  | Health
      (** liveness probe: queue depth, slot states, quarantine count —
          answerable even while every runner slot is busy *)

type job_state =
  | Queued of { position : int }
  | Running of { done_cases : int; total_cases : int }
  | Finished of { cases : int; passed : int; failed : string option }
  | Cancelled
  | Quarantined of { crashes : int; reason : string; last_case : string option }

type response =
  | Accepted of { id : int; queued : int }
  | Busy of { reason : string; retry_after_ms : int }
  | Rejected of { reason : string }
  | Job of { id : int; state : job_state }
  | Server of {
      queued : int;
      running : int;
      completed : int;
      cancelled : int;
      quarantined : int;  (** 0 when talking to a pre-quarantine server *)
      tenants : (string * int) list;
    }
  | Case of {
      id : int;
      seq : int;
      case : string;
      seed : int;
      report_json : string;
    }
  | Done of { id : int; cases : int; passed : int; failed : string option }
  | Quarantined_result of {
      id : int;
      crashes : int;
      reason : string;
      last_case : string option;
    }
      (** RESULTS terminator for a quarantined job: the job is poison and
          no reports will ever come — triage the journal instead *)
  | Shutting_down of { active : int; queued : int }
  | Draining of { active : int; queued : int }
  | Health of {
      queued : int;
      running : int;
      quarantined : int;
      draining : bool;
      slots : (int * string) list;
          (** slot index -> ["idle" | "starting" | "down" |
              "running job N (pid P)" | "hung job N (pid P)"] *)
      worker_pids : int list;  (** live worker processes, slot order *)
      respawns : int;          (** workers respawned after a death *)
      kills_term : int;        (** watchdog SIGTERMs sent *)
      kills_kill : int;        (** watchdog SIGKILLs sent *)
    }
  | Error_msg of string

val request_to_string : request -> string
val request_to_json : request -> Rb_util.Json.t
val response_to_string : response -> string
val parse_request : string -> (request, string) result
val parse_response : string -> (response, string) result
