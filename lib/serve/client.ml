type t = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  mutable pending : Wire.response list;  (* decoded but not yet returned *)
}

let connect ?(retries = 50) ?(retry_delay_s = 0.1) path =
  (* a peer that is gone must be a send error (EPIPE), not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd; dec = Wire.decoder (); pending = [] }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf retry_delay_s;
      go (n - 1)
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect %s: %s" path (Unix.error_message err))
  in
  go retries

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t req =
  let frame = Wire.encode (Wire.request_to_string req) in
  let b = Bytes.unsafe_of_string frame in
  let len = Bytes.length b in
  let rec write_all off =
    if off < len then
      match Unix.write t.fd b off (len - off) with
      | n -> write_all (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
      | exception Unix.Unix_error (err, _, _) ->
        failwith (Printf.sprintf "send: %s" (Unix.error_message err))
  in
  match write_all 0 with
  | () -> Ok ()
  | exception Failure e -> Error e

(* Blocking receive of the next response frame; [timeout_s] bounds the
   whole wait, not one read. *)
let recv ?(timeout_s = 30.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Bytes.create 65536 in
  let rec go () =
    match t.pending with
    | r :: rest ->
      t.pending <- rest;
      Ok r
    | [] ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then Error "recv: timeout"
      else begin
        match Unix.select [ t.fd ] [] [] left with
        | [], _, _ -> Error "recv: timeout"
        | _ -> (
          match Unix.read t.fd buf 0 (Bytes.length buf) with
          | 0 -> Error "recv: connection closed"
          | n -> (
            match Wire.feed t.dec buf 0 n with
            | Error e -> Error ("recv: " ^ e)
            | Ok frames -> (
              match
                List.fold_left
                  (fun acc payload ->
                    Result.bind acc (fun rs ->
                        Result.map
                          (fun r -> r :: rs)
                          (Wire.parse_response payload)))
                  (Ok []) frames
              with
              | Error e -> Error ("recv: " ^ e)
              | Ok rs ->
                t.pending <- t.pending @ List.rev rs;
                go ()))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (err, _, _) ->
            Error (Printf.sprintf "recv: %s" (Unix.error_message err)))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      end
  in
  go ()

let request ?timeout_s t req =
  match send t req with
  | Error e -> Error e
  | Ok () -> recv ?timeout_s t

(* Submit and ride the stream to completion: CASE frames accumulate,
   DONE ends the job. Out-of-band frames for other jobs are skipped (one
   connection normally tracks one job, but STATUS polls may interleave). *)
let run_job ?timeout_s ?(on_case = fun (_ : Wire.response) -> ()) t ~tenant
    ~backend ~cases ~opts =
  match request ?timeout_s t (Wire.Submit { tenant; backend; cases; opts }) with
  | Error e -> Error e
  | Ok (Wire.Busy { reason; retry_after_ms }) ->
    Error (Printf.sprintf "busy: %s (retry in %dms)" reason retry_after_ms)
  | Ok (Wire.Rejected { reason }) -> Error ("rejected: " ^ reason)
  | Ok (Wire.Accepted { id; _ }) ->
    let rec wait acc =
      match recv ?timeout_s t with
      | Error e -> Error e
      | Ok (Wire.Case { id = cid; _ } as frame) when cid = id ->
        on_case frame;
        wait (frame :: acc)
      | Ok (Wire.Done { id = did; cases; passed; failed }) when did = id ->
        Ok ((cases, passed, failed), List.rev acc)
      | Ok (Wire.Error_msg e) -> Error e
      | Ok _ -> wait acc
    in
    wait []
  | Ok r -> Error ("unexpected response: " ^ Wire.response_to_string r)
