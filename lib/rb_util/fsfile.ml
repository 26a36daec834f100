(* Directory-entry durability: after renaming into [dir] (or creating a
   child directory), fsync the directory so the new entry itself is on
   stable storage. A filesystem that cannot fsync a directory says EINVAL,
   which is ignored; any other failure (EIO, or a directory that cannot be
   opened) means the entry may not be durable, so it propagates. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  (match Unix.fsync fd with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> ()
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e);
  Unix.close fd

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    match Unix.mkdir dir 0o755 with
    | () ->
      (* a freshly created directory is itself a new entry in its parent:
         without this fsync a crash can lose the whole directory — and with
         it every file later fsynced inside it *)
      fsync_dir (Filename.dirname dir)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_channel path emit =
  mkdir_p (Filename.dirname path);
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (* Any failure before the rename — the writer itself, but also flush,
     fsync, close or the rename (ENOSPC, EIO, EROFS, quota) — must not
     leave the tmp file beside the target; remove it and re-raise the
     original. A failed file fsync is a failed write: the caller must not
     acknowledge bytes that may never reach the disk. *)
  (match
     emit oc;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with
  | () -> ()
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  (match Sys.rename tmp path with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  fsync_dir (Filename.dirname path)

let write_atomic path contents =
  write_channel path (fun oc -> output_string oc contents)

let read path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
    match really_input_string ic (in_channel_length ic) with
    | s ->
      close_in ic;
      Some s
    | exception End_of_file ->
      close_in_noerr ic;
      None
    | exception Sys_error _ ->
      close_in_noerr ic;
      None)

let remove_if_exists path =
  try Sys.remove path with Sys_error _ -> ()

(* -- checksummed records ------------------------------------------------- *)

(* One header line — magic+version, payload length, payload CRC-32 — then
   the payload verbatim. The length makes a torn tail distinguishable from
   a bit flip: a short payload is truncation (heal-or-quarantine by policy),
   a full-length payload with a wrong CRC is corruption; extra bytes after
   the declared length are a healable appended tail. Every writer uses
   this format, so a record without the magic is corrupt. *)

let checked_magic = "%RB1"

type checked =
  | Intact of string       (* header present, length and CRC both check out *)
  | Healed of string       (* declared prefix intact; trailing junk dropped *)
  | Torn                   (* payload shorter than declared *)
  | Corrupt of string      (* no or bad header, or CRC mismatch (reason) *)
  | Missing

let render_checked payload =
  Printf.sprintf "%s %d %s\n%s" checked_magic (String.length payload)
    (Crc32.to_hex (Crc32.string payload))
    payload

let write_checked path payload = write_atomic path (render_checked payload)

let classify_checked s =
  let starts_with_magic =
    String.length s >= String.length checked_magic
    && String.sub s 0 (String.length checked_magic) = checked_magic
  in
  if not starts_with_magic then Corrupt "no record header"
  else
    match String.index_opt s '\n' with
    | None -> Torn (* header itself truncated *)
    | Some nl -> (
      let header = String.sub s 0 nl in
      let body = String.sub s (nl + 1) (String.length s - nl - 1) in
      match String.split_on_char ' ' header with
      | [ magic; len; crc ] when magic = checked_magic -> (
        match (int_of_string_opt len, Crc32.of_hex crc) with
        | Some len, Some crc when len >= 0 ->
          let have = String.length body in
          if have < len then Torn
          else
            let payload = String.sub body 0 len in
            if Crc32.string payload <> crc then
              Corrupt "checksum mismatch"
            else if have = len then Intact payload
            else Healed payload
        | _ -> Corrupt "unparseable record header")
      | _ -> Corrupt "unparseable record header")

let read_checked path =
  match read path with
  | None -> Missing
  | Some s -> classify_checked s

let checked_payload = function
  | Intact p | Healed p -> Some p
  | Torn | Corrupt _ | Missing -> None
