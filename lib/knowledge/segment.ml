(* Persistent append-only segment store. See segment.mli for the layout;
   the crash-safety argument, in one place:

   - tail appends are single framed writes followed by fsync. A crash can
     only tear the final frame; the frame header carries length + CRC-32,
     so recovery keeps exactly the whole-frame prefix.
   - sealing writes the new segment via Fsfile.write_checked (tmp, fsync,
     atomic rename, directory fsync) BEFORE removing tail.log. A crash
     between the two leaves both; load dedupes by id, first wins.
   - compaction writes the merged segment BEFORE deleting its inputs;
     same dedupe argument.
   - nothing ever rewrites bytes in place, so damage is always confined
     to a classifiable unit (one frame, one file) and quarantine can
     preserve it byte-for-byte. *)

module Json = Rb_util.Json
module Fsfile = Rb_util.Fsfile
module Crc32 = Rb_util.Crc32

type record = {
  id : int;
  fv : int;
  vec : float array;
  payload : Json.t;
}

type load_report = {
  records : record list;
  segments : int;
  tail_records : int;
  healed_tail_bytes : int;
  corrupt_segments : int;
  mismatched : int;
  duplicates : int;
}

let meta_name = "META"
let tail_name = "tail.log"
let lock_name = "LOCK"
let frame_magic = "%RBR1"

let seg_name i = Printf.sprintf "seg-%08d.seg" i

let seg_index name =
  if String.length name = 16
     && String.sub name 0 4 = "seg-"
     && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name 4 8)
  else None

(* -- record codec ------------------------------------------------------- *)

let record_to_json r =
  Json.Obj
    [ ("id", Json.Num (float_of_int r.id));
      ("fv", Json.Num (float_of_int r.fv));
      ("vec", Json.List (Array.to_list (Array.map (fun x -> Json.Num x) r.vec)));
      ("p", r.payload) ]

let record_to_string r = Json.to_string (record_to_json r)

let record_of_json j =
  match
    ( Option.bind (Json.member "id" j) Json.to_int,
      Option.bind (Json.member "fv" j) Json.to_int,
      Option.bind (Json.member "vec" j) Json.to_list,
      Json.member "p" j )
  with
  | Some id, Some fv, Some vec, Some payload ->
    let comps = List.map Json.to_float vec in
    if List.mem None comps then None
    else
      Some
        { id; fv;
          vec = Array.of_list (List.filter_map Fun.id comps);
          payload }
  | _ -> None

let record_of_string s =
  match Json.parse s with Ok j -> record_of_json j | Error _ -> None

(* -- META --------------------------------------------------------------- *)

let meta_to_string ~dim ~fv =
  Json.to_string
    (Json.Obj
       [ ("magic", Json.Str "rbkb");
         ("dim", Json.Num (float_of_int dim));
         ("fv", Json.Num (float_of_int fv)) ])

let read_meta dir =
  match Fsfile.read_checked (Filename.concat dir meta_name) with
  | Fsfile.Missing -> Ok None
  | c -> (
    match Fsfile.checked_payload c with
    | None -> Error "META is damaged"
    | Some s -> (
      match Json.parse s with
      | Error e -> Error (Printf.sprintf "META does not parse: %s" e)
      | Ok j -> (
        match
          ( Option.bind (Json.member "magic" j) Json.to_str,
            Option.bind (Json.member "dim" j) Json.to_int,
            Option.bind (Json.member "fv" j) Json.to_int )
        with
        | Some "rbkb", Some dim, Some fv -> Ok (Some (dim, fv))
        | _ -> Error "META has the wrong shape")))

(* -- tail framing -------------------------------------------------------- *)

let frame payload =
  Printf.sprintf "%s %d %s\n%s\n" frame_magic (String.length payload)
    (Crc32.to_hex (Crc32.string payload))
    payload

(* Parse the whole-frame prefix of [s]; returns the payloads in order and
   the byte length of the prefix that verified. *)
let parse_frames s =
  let n = String.length s in
  let payloads = ref [] in
  let pos = ref 0 in
  let good = ref 0 in
  (try
     while !pos < n do
       let nl = String.index_from s !pos '\n' in
       let header = String.sub s !pos (nl - !pos) in
       (match String.split_on_char ' ' header with
       | [ magic; len_s; crc_s ] when magic = frame_magic -> (
         match (int_of_string_opt len_s, Crc32.of_hex crc_s) with
         | Some len, Some crc when len >= 0 && nl + 1 + len + 1 <= n ->
           let payload = String.sub s (nl + 1) len in
           if s.[nl + 1 + len] <> '\n' then raise Exit;
           if Crc32.string payload <> crc then raise Exit;
           payloads := payload :: !payloads;
           pos := nl + 1 + len + 1;
           good := !pos
         | _ -> raise Exit)
       | _ -> raise Exit)
     done
   with Exit | Not_found -> ());
  (List.rev !payloads, !good)

(* -- load ---------------------------------------------------------------- *)

let list_segments dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun n -> Option.map (fun i -> (i, n)) (seg_index n))
    |> List.sort compare

let quarantine_dir dir = Filename.concat dir "quarantined"

let quarantine_segment ~dir name =
  let qdir = Filename.concat (quarantine_dir dir) "corrupt" in
  Fsfile.mkdir_p qdir;
  (try Sys.rename (Filename.concat dir name) (Filename.concat qdir name)
   with Sys_error _ -> ());
  Fsfile.fsync_dir dir

let quarantine_records ~dir lines =
  if lines <> [] then begin
    Fsfile.mkdir_p (quarantine_dir dir);
    let path = Filename.concat (quarantine_dir dir) "records.jsonl" in
    let existing = Option.value (Fsfile.read path) ~default:"" in
    Fsfile.write_atomic path
      (existing ^ String.concat "" (List.map (fun l -> l ^ "\n") lines))
  end

type scan = {
  sc_records : record list;       (* in discovery order *)
  sc_segments : int;
  sc_tail_records : int;
  sc_healed_bytes : int;
  sc_corrupt : string list;       (* damaged segment file names *)
  sc_bad : string list;           (* mismatched record lines (raw JSON) *)
  sc_tail_good : int;             (* verified tail prefix length, bytes *)
}

let scan ~dim ~fv dir =
  let acc = ref [] and bad = ref [] and corrupt = ref [] in
  let classify_record line =
    match record_of_string line with
    | Some r when Array.length r.vec = dim && r.fv = fv -> acc := r :: !acc
    | Some _ | None -> bad := line :: !bad
  in
  let seg_files = list_segments dir in
  let live_segs = ref 0 in
  List.iter
    (fun (_, name) ->
      match Fsfile.read_checked (Filename.concat dir name) with
      | Fsfile.Intact payload | Fsfile.Healed payload ->
        incr live_segs;
        String.split_on_char '\n' payload
        |> List.iter (fun line -> if String.trim line <> "" then classify_record line)
      | Fsfile.Torn | Fsfile.Corrupt _ -> corrupt := name :: !corrupt
      | Fsfile.Missing -> ())
    seg_files;
  let tail_payloads, tail_good, tail_len =
    match Fsfile.read (Filename.concat dir tail_name) with
    | None -> ([], 0, 0)
    | Some s ->
      let ps, good = parse_frames s in
      (ps, good, String.length s)
  in
  List.iter classify_record tail_payloads;
  { sc_records = List.rev !acc;
    sc_segments = !live_segs;
    sc_tail_records = List.length tail_payloads;
    sc_healed_bytes = tail_len - tail_good;
    sc_corrupt = List.rev !corrupt;
    sc_bad = List.rev !bad;
    sc_tail_good = tail_good }

(* id-ascending, first occurrence of each id wins (sealing/compaction
   crash windows legitimately leave the same id in two files) *)
let dedupe records =
  let sorted = List.stable_sort (fun a b -> compare a.id b.id) records in
  let rec go dropped acc = function
    | [] -> (List.rev acc, dropped)
    | r :: rest -> (
      match acc with
      | prev :: _ when prev.id = r.id -> go (dropped + 1) acc rest
      | _ -> go dropped (r :: acc) rest)
  in
  go 0 [] sorted

let resolve_expect ~dir expect =
  match (read_meta dir, expect) with
  | Error e, _ -> Error e
  | Ok (Some (dim, fv)), Some (edim, efv) when (dim, fv) <> (edim, efv) ->
    Error
      (Printf.sprintf
         "store is stamped dim=%d fv=%d but this build expects dim=%d fv=%d"
         dim fv edim efv)
  | Ok (Some stamp), _ -> Ok stamp
  | Ok None, Some stamp -> Ok stamp
  | Ok None, None -> Error "store has no META and no expected stamp was given"

let report_of_scan sc =
  let records, duplicates = dedupe sc.sc_records in
  { records;
    segments = sc.sc_segments;
    tail_records = sc.sc_tail_records;
    healed_tail_bytes = sc.sc_healed_bytes;
    corrupt_segments = List.length sc.sc_corrupt;
    mismatched = List.length sc.sc_bad;
    duplicates }

let load ?expect dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "no store directory at %s" dir)
  else
    match resolve_expect ~dir expect with
    | Error e -> Error e
    | Ok (dim, fv) -> Ok (report_of_scan (scan ~dim ~fv dir))

(* Fixing pass: truncate the torn tail, set damaged segments aside,
   persist mismatched records into quarantine. Requires write access. *)
let scrub ~dim ~fv dir =
  let sc = scan ~dim ~fv dir in
  if sc.sc_healed_bytes > 0 then begin
    (try Unix.truncate (Filename.concat dir tail_name) sc.sc_tail_good
     with Unix.Unix_error _ -> ());
    Fsfile.fsync_dir dir
  end;
  List.iter (fun name -> quarantine_segment ~dir name) sc.sc_corrupt;
  quarantine_records ~dir sc.sc_bad;
  report_of_scan sc

(* -- writer -------------------------------------------------------------- *)

type writer = {
  dir : string;
  dim : int;
  fv : int;
  seal_every : int;
  compact_at : int;
  lock_fd : Unix.file_descr;
  mutable live_rev : record list;   (* every live record, newest first *)
  mutable tail_rev : record list;   (* records currently in tail.log *)
  mutable tail_fd : Unix.file_descr option;
  mutable next_id : int;
  mutable closed : bool;
}

let take_lock dir =
  let path = Filename.concat dir lock_name in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () ->
    (try
       ignore (Unix.ftruncate fd 0);
       let pid = string_of_int (Unix.getpid ()) ^ "\n" in
       ignore (Unix.write_substring fd pid 0 (String.length pid))
     with Unix.Unix_error _ -> ());
    Ok fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
    Unix.close fd;
    Error (Printf.sprintf "another writer holds %s" path)

let open_writer ?expect ?(seal_every = 256) ?(compact_at = 8) ~dir () =
  Fsfile.mkdir_p dir;
  match resolve_expect ~dir expect with
  | Error e -> Error e
  | Ok (dim, fv) -> (
    let meta_path = Filename.concat dir meta_name in
    if Fsfile.read_checked meta_path = Fsfile.Missing then
      Fsfile.write_checked meta_path (meta_to_string ~dim ~fv);
    match take_lock dir with
    | Error e -> Error e
    | Ok lock_fd ->
      let report = scrub ~dim ~fv dir in
      (* never reuse an id, even a quarantined record's: ids are forever *)
      let max_seen =
        List.fold_left (fun m r -> max m r.id) (-1) report.records
      in
      let tail_ids =
        match Fsfile.read (Filename.concat dir tail_name) with
        | None -> []
        | Some s ->
          fst (parse_frames s) |> List.filter_map record_of_string
          |> List.map (fun r -> r.id)
      in
      let w =
        { dir; dim; fv; seal_every = max 1 seal_every;
          compact_at = max 2 compact_at; lock_fd;
          live_rev = List.rev report.records;
          tail_rev =
            List.rev
              (List.filter (fun r -> List.mem r.id tail_ids) report.records);
          tail_fd = None;
          next_id = max_seen + 1;
          closed = false }
      in
      Ok (w, report))

let records w = List.rev w.live_rev

let live_segment_count w = List.length (list_segments w.dir)

let close_tail_fd w =
  match w.tail_fd with
  | None -> ()
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    w.tail_fd <- None

let seal w =
  if w.tail_rev <> [] then begin
    let idx =
      1 + List.fold_left (fun m (i, _) -> max m i) 0 (list_segments w.dir)
    in
    let body =
      String.concat ""
        (List.rev_map (fun r -> record_to_string r ^ "\n") w.tail_rev)
    in
    Fsfile.write_checked (Filename.concat w.dir (seg_name idx)) body;
    (* the segment is durable; only now may the tail go *)
    close_tail_fd w;
    Fsfile.remove_if_exists (Filename.concat w.dir tail_name);
    Fsfile.fsync_dir w.dir;
    w.tail_rev <- []
  end

let compact w =
  seal w;
  let segs = list_segments w.dir in
  if List.length segs >= 2 then begin
    let idx = 1 + List.fold_left (fun m (i, _) -> max m i) 0 segs in
    let body =
      String.concat ""
        (List.rev_map (fun r -> record_to_string r ^ "\n") w.live_rev)
    in
    Fsfile.write_checked (Filename.concat w.dir (seg_name idx)) body;
    (* merged segment durable first; deleting inputs can now crash at any
       point without losing a record (dedupe by id covers the overlap) *)
    List.iter
      (fun (_, name) -> Fsfile.remove_if_exists (Filename.concat w.dir name))
      segs;
    Fsfile.fsync_dir w.dir
  end

let append w ~vec ~payload =
  if w.closed then Error "writer is closed"
  else if Array.length vec <> w.dim then begin
    quarantine_records ~dir:w.dir
      [ record_to_string { id = w.next_id; fv = w.fv; vec; payload } ];
    Error
      (Printf.sprintf "vector has %d components, store is stamped dim=%d"
         (Array.length vec) w.dim)
  end
  else begin
    let r = { id = w.next_id; fv = w.fv; vec; payload } in
    let fd =
      match w.tail_fd with
      | Some fd -> fd
      | None ->
        let fd =
          Unix.openfile
            (Filename.concat w.dir tail_name)
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
            0o644
        in
        w.tail_fd <- Some fd;
        fd
    in
    let bytes = frame (record_to_string r) in
    let n = Unix.write_substring fd bytes 0 (String.length bytes) in
    if n <> String.length bytes then Error "short write appending record"
    else begin
      Unix.fsync fd;
      w.next_id <- r.id + 1;
      w.live_rev <- r :: w.live_rev;
      w.tail_rev <- r :: w.tail_rev;
      if List.length w.tail_rev >= w.seal_every then seal w;
      if live_segment_count w >= w.compact_at then compact w;
      Ok r.id
    end
  end

let close w =
  if not w.closed then begin
    seal w;
    close_tail_fd w;
    (try Unix.close w.lock_fd with Unix.Unix_error _ -> ());
    w.closed <- true
  end

let fsck ?(fix = false) ?expect dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "no store directory at %s" dir)
  else if not fix then load ?expect dir
  else
    match resolve_expect ~dir expect with
    | Error e -> Error e
    | Ok (dim, fv) -> (
      match take_lock dir with
      | Error e -> Error e
      | Ok fd ->
        let report = scrub ~dim ~fv dir in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Ok report)
