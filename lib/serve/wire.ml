(* -- framing ----------------------------------------------------------- *)

let default_max_frame = 1 lsl 20

let encode payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

type decoder = {
  max_frame : int;
  mutable acc : string;     (* unconsumed bytes, header-aligned at offset 0 *)
  mutable poisoned : string option;
}

let decoder ?(max_frame = default_max_frame) () =
  { max_frame; acc = ""; poisoned = None }

let buffered d = String.length d.acc

(* Incremental: any split of the byte stream — mid-header, mid-payload —
   yields the same frames. A violation (oversized or empty declared length)
   poisons the decoder: framing is self-synchronizing only if lengths are
   trusted, so after a bad header the stream has no recoverable structure
   and the connection must be dropped. *)
let feed d chunk pos len =
  match d.poisoned with
  | Some e -> Error e
  | None ->
    d.acc <- d.acc ^ Bytes.sub_string chunk pos len;
    let frames = ref [] in
    let err = ref None in
    let continue = ref true in
    while !continue do
      let have = String.length d.acc in
      if have < 4 then continue := false
      else begin
        let declared = Int32.to_int (String.get_int32_be d.acc 0) in
        if declared <= 0 then begin
          err := Some (Printf.sprintf "bad frame length %d" declared);
          continue := false
        end
        else if declared > d.max_frame then begin
          err :=
            Some
              (Printf.sprintf "frame of %d bytes exceeds limit %d" declared
                 d.max_frame);
          continue := false
        end
        else if have < 4 + declared then continue := false
        else begin
          frames := String.sub d.acc 4 declared :: !frames;
          d.acc <- String.sub d.acc (4 + declared) (have - 4 - declared)
        end
      end
    done;
    (match !err with
    | Some e ->
      d.poisoned <- Some e;
      d.acc <- ""
    | None -> ());
    (* frames decoded before the violation are still delivered; the error
       surfaces on the next feed *)
    (match (!frames, !err) with
    | [], Some e -> Error e
    | fs, _ -> Ok (List.rev fs))

(* -- protocol messages -------------------------------------------------- *)

type request =
  | Submit of {
      tenant : string;
      backend : string;
      cases : string list option;
      opts : Exec.Campaign_opts.t option;
    }
  | Status of int option
  | Cancel of int
  | Results of int
  | Shutdown
  | Drain
  | Health

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
      quarantined : int;
      tenants : (string * int) list;  (** tenant -> queued jobs *)
    }
  | Case of {
      id : int;
      seq : int;           (** 0-based case index within the job *)
      case : string;
      seed : int;
      report_json : string;  (** one [Report.to_json] object, verbatim *)
    }
  | Done of { id : int; cases : int; passed : int; failed : string option }
  | Quarantined_result of {
      id : int;
      crashes : int;
      reason : string;
      last_case : string option;
    }  (** RESULTS terminator for a poison job: no reports will ever come *)
  | Shutting_down of { active : int; queued : int }
  | Draining of { active : int; queued : int }
      (** admission is closed but in-flight and queued work will finish *)
  | Health of {
      queued : int;
      running : int;
      quarantined : int;
      draining : bool;
      slots : (int * string) list;  (** slot index -> state label *)
      worker_pids : int list;       (** live worker processes *)
      respawns : int;               (** workers respawned after a death *)
      kills_term : int;             (** watchdog SIGTERMs sent *)
      kills_kill : int;             (** watchdog SIGKILLs sent *)
    }
  | Error_msg of string

open Rb_util.Json

let num i = Num (float_of_int i)

let request_to_json = function
  | Submit { tenant; backend; cases; opts } ->
    Obj
      (List.concat
         [ [ ("type", Str "submit"); ("tenant", Str tenant);
             ("backend", Str backend) ];
           (match cases with
           | None -> []
           | Some cs -> [ ("cases", List (List.map (fun c -> Str c) cs)) ]);
           (match opts with
           | None -> []
           | Some o -> [ ("opts", Exec.Campaign_opts.to_wire_json o) ]) ])
  | Status None -> Obj [ ("type", Str "status") ]
  | Status (Some id) -> Obj [ ("type", Str "status"); ("id", num id) ]
  | Cancel id -> Obj [ ("type", Str "cancel"); ("id", num id) ]
  | Results id -> Obj [ ("type", Str "results"); ("id", num id) ]
  | Shutdown -> Obj [ ("type", Str "shutdown") ]
  | Drain -> Obj [ ("type", Str "drain") ]
  | Health -> Obj [ ("type", Str "health") ]

let request_of_json json =
  let ( let* ) r f = Result.bind r f in
  let* ty =
    match Option.bind (member "type" json) to_str with
    | Some t -> Ok t
    | None -> Error "request: missing \"type\""
  in
  let id () =
    match Option.bind (member "id" json) to_int with
    | Some id -> Ok id
    | None -> Error (Printf.sprintf "request %S: missing job \"id\"" ty)
  in
  match ty with
  | "submit" ->
    let str name fallback =
      match member name json with
      | None -> Ok fallback
      | Some v -> (
        match to_str v with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "submit: field %S mistyped" name))
    in
    let* tenant = str "tenant" "default" in
    let* backend = str "backend" "rustbrain" in
    let* cases =
      match member "cases" json with
      | None -> Ok None
      | Some v -> (
        match Option.map (List.map to_str) (to_list v) with
        | Some ss when not (List.mem None ss) ->
          Ok (Some (List.filter_map Fun.id ss))
        | _ -> Error "submit: field \"cases\" must be a string list")
    in
    let* opts =
      match member "opts" json with
      | None -> Ok None
      | Some o -> Result.map Option.some (Exec.Campaign_opts.of_wire_json o)
    in
    Ok (Submit { tenant; backend; cases; opts })
  | "status" -> (
    match member "id" json with
    | None -> Ok (Status None)
    | Some _ ->
      let* id = id () in
      Ok (Status (Some id)))
  | "cancel" ->
    let* id = id () in
    Ok (Cancel id)
  | "results" ->
    let* id = id () in
    Ok (Results id)
  | "shutdown" -> Ok Shutdown
  | "drain" -> Ok Drain
  | "health" -> Ok Health
  | t -> Error (Printf.sprintf "unknown request type %S" t)

let state_to_fields = function
  | Queued { position } -> [ ("state", Str "queued"); ("position", num position) ]
  | Running { done_cases; total_cases } ->
    [ ("state", Str "running"); ("done_cases", num done_cases);
      ("total_cases", num total_cases) ]
  | Finished { cases; passed; failed } ->
    [ ("state", Str "done"); ("cases", num cases); ("passed", num passed) ]
    @ (match failed with None -> [] | Some m -> [ ("failed", Str m) ])
  | Cancelled -> [ ("state", Str "cancelled") ]
  | Quarantined { crashes; reason; last_case } ->
    [ ("state", Str "quarantined"); ("crashes", num crashes);
      ("reason", Str reason) ]
    @ (match last_case with None -> [] | Some c -> [ ("last_case", Str c) ])

(* [Case] splices the already-rendered report in verbatim rather than
   re-rendering through [Json.t]: the bytes a client sees are exactly the
   bytes [Report.to_json] produced and the durable results file stores. *)
let response_to_string = function
  | Case { id; seq; case; seed; report_json } ->
    Printf.sprintf
      {|{"type":"case","id":%d,"seq":%d,"case":%s,"seed":%d,"report":%s}|} id
      seq (escape case) seed report_json
  | r ->
    to_string
      (match r with
      | Case _ -> assert false
      | Accepted { id; queued } ->
        Obj [ ("type", Str "accepted"); ("id", num id); ("queued", num queued) ]
      | Busy { reason; retry_after_ms } ->
        Obj
          [ ("type", Str "busy"); ("reason", Str reason);
            ("retry_after_ms", num retry_after_ms) ]
      | Rejected { reason } ->
        Obj [ ("type", Str "rejected"); ("reason", Str reason) ]
      | Job { id; state } ->
        Obj (( "type", Str "job") :: ("id", num id) :: state_to_fields state)
      | Server { queued; running; completed; cancelled; quarantined; tenants } ->
        Obj
          [ ("type", Str "server"); ("queued", num queued);
            ("running", num running); ("completed", num completed);
            ("cancelled", num cancelled); ("quarantined", num quarantined);
            ("tenants", Obj (List.map (fun (t, n) -> (t, num n)) tenants)) ]
      | Done { id; cases; passed; failed } ->
        Obj
          ([ ("type", Str "done"); ("id", num id); ("cases", num cases);
             ("passed", num passed) ]
          @ match failed with None -> [] | Some m -> [ ("failed", Str m) ])
      | Quarantined_result { id; crashes; reason; last_case } ->
        Obj
          ([ ("type", Str "quarantined"); ("id", num id);
             ("crashes", num crashes); ("reason", Str reason) ]
          @
          match last_case with
          | None -> []
          | Some c -> [ ("last_case", Str c) ])
      | Shutting_down { active; queued } ->
        Obj
          [ ("type", Str "shutting-down"); ("active", num active);
            ("queued", num queued) ]
      | Draining { active; queued } ->
        Obj
          [ ("type", Str "draining"); ("active", num active);
            ("queued", num queued) ]
      | Health
          { queued; running; quarantined; draining; slots; worker_pids;
            respawns; kills_term; kills_kill } ->
        Obj
          [ ("type", Str "health"); ("queued", num queued);
            ("running", num running); ("quarantined", num quarantined);
            ("draining", Bool draining);
            ( "slots",
              List
                (List.map
                   (fun (i, s) -> Obj [ ("slot", num i); ("state", Str s) ])
                   slots) );
            ("worker_pids", List (List.map num worker_pids));
            ("respawns", num respawns); ("kills_term", num kills_term);
            ("kills_kill", num kills_kill) ]
      | Error_msg msg -> Obj [ ("type", Str "error"); ("msg", Str msg) ])

let response_of_json json =
  let ( let* ) r f = Result.bind r f in
  let int name =
    match Option.bind (member name json) to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "response: missing %S" name)
  in
  let str name =
    match Option.bind (member name json) to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "response: missing %S" name)
  in
  let failed () = Option.bind (member "failed" json) to_str in
  let* ty = str "type" in
  match ty with
  | "accepted" ->
    let* id = int "id" in
    let* queued = int "queued" in
    Ok (Accepted { id; queued })
  | "busy" ->
    let* reason = str "reason" in
    let* retry_after_ms = int "retry_after_ms" in
    Ok (Busy { reason; retry_after_ms })
  | "rejected" ->
    let* reason = str "reason" in
    Ok (Rejected { reason })
  | "job" ->
    let* id = int "id" in
    let* state = str "state" in
    let* state =
      match state with
      | "queued" ->
        let* position = int "position" in
        Ok (Queued { position })
      | "running" ->
        let* done_cases = int "done_cases" in
        let* total_cases = int "total_cases" in
        Ok (Running { done_cases; total_cases })
      | "done" ->
        let* cases = int "cases" in
        let* passed = int "passed" in
        Ok (Finished { cases; passed; failed = failed () })
      | "cancelled" -> Ok Cancelled
      | "quarantined" ->
        let* crashes = int "crashes" in
        let* reason = str "reason" in
        Ok
          (Quarantined
             { crashes; reason;
               last_case = Option.bind (member "last_case" json) to_str })
      | s -> Error (Printf.sprintf "unknown job state %S" s)
    in
    Ok (Job { id; state })
  | "server" ->
    let* queued = int "queued" in
    let* running = int "running" in
    let* completed = int "completed" in
    let* cancelled = int "cancelled" in
    (* absent on pre-quarantine servers *)
    let quarantined =
      Option.value ~default:0 (Option.bind (member "quarantined" json) to_int)
    in
    let* tenants =
      match member "tenants" json with
      | Some (Obj fields) ->
        List.fold_right
          (fun (t, v) acc ->
            let* acc = acc in
            match to_int v with
            | Some n -> Ok ((t, n) :: acc)
            | None -> Error "response: mistyped tenant depth")
          fields (Ok [])
      | _ -> Error "response: missing \"tenants\""
    in
    Ok (Server { queued; running; completed; cancelled; quarantined; tenants })
  | "case" ->
    let* id = int "id" in
    let* seq = int "seq" in
    let* case = str "case" in
    let* seed = int "seed" in
    let* report_json =
      match member "report" json with
      | Some r -> Ok (to_string r)
      | None -> Error "response: missing \"report\""
    in
    Ok (Case { id; seq; case; seed; report_json })
  | "done" ->
    let* id = int "id" in
    let* cases = int "cases" in
    let* passed = int "passed" in
    Ok (Done { id; cases; passed; failed = failed () })
  | "quarantined" ->
    let* id = int "id" in
    let* crashes = int "crashes" in
    let* reason = str "reason" in
    Ok
      (Quarantined_result
         { id; crashes; reason;
           last_case = Option.bind (member "last_case" json) to_str })
  | "shutting-down" ->
    let* active = int "active" in
    let* queued = int "queued" in
    Ok (Shutting_down { active; queued })
  | "draining" ->
    let* active = int "active" in
    let* queued = int "queued" in
    Ok (Draining { active; queued })
  | "health" ->
    let* queued = int "queued" in
    let* running = int "running" in
    let* quarantined = int "quarantined" in
    let draining =
      Option.value ~default:false
        (Option.bind (member "draining" json) to_bool)
    in
    let slots =
      match Option.bind (member "slots" json) to_list with
      | None -> []
      | Some l ->
        List.filter_map
          (fun s ->
            match
              ( Option.bind (member "slot" s) to_int,
                Option.bind (member "state" s) to_str )
            with
            | Some i, Some st -> Some (i, st)
            | _ -> None)
          l
    in
    (* supervision fields absent on pre-procpool servers read as 0 *)
    let opt_int name =
      Option.value ~default:0 (Option.bind (member name json) to_int)
    in
    let worker_pids =
      match Option.bind (member "worker_pids" json) to_list with
      | None -> []
      | Some l -> List.filter_map to_int l
    in
    Ok
      (Health
         { queued; running; quarantined; draining; slots; worker_pids;
           respawns = opt_int "respawns"; kills_term = opt_int "kills_term";
           kills_kill = opt_int "kills_kill" })
  | "error" ->
    let* msg = str "msg" in
    Ok (Error_msg msg)
  | t -> Error (Printf.sprintf "unknown response type %S" t)

let request_to_string r = to_string (request_to_json r)

let parse_request s =
  match parse s with
  | Error e -> Error ("request: " ^ e)
  | Ok j -> request_of_json j

let parse_response s =
  match parse s with
  | Error e -> Error ("response: " ^ e)
  | Ok j -> response_of_json j
