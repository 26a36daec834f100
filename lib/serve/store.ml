type submission = {
  id : int;
  tenant : string;
  backend : string;
  cases : string list;
  opts : Exec.Campaign_opts.t;
}

type completion = { cases : int; passed : int; failed : string option }

type quarantine_info = {
  crashes : int;
  reason : string;
  backtrace : string;
  last_case : string option;
}

type status =
  | Queued
  | Done of completion
  | Cancelled
  | Quarantined of quarantine_info

type t = {
  dir : string;
  queue_dir : string;
  results_dir : string;
  jobs_dir : string;
  quarantine_dir : string;
  statuses : (int, status) Hashtbl.t;
  subs : (int, submission) Hashtbl.t;
  attempts : (int, int * int) Hashtbl.t;  (* id -> started, ended *)
  mutable next_id : int;
}

let job_file t id = Filename.concat t.queue_dir (Printf.sprintf "job-%06d.json" id)
let done_file t id = Filename.concat t.queue_dir (Printf.sprintf "done-%06d.json" id)

let cancelled_file t id =
  Filename.concat t.queue_dir (Printf.sprintf "cancelled-%06d.json" id)

let attempts_file t id =
  Filename.concat t.queue_dir (Printf.sprintf "attempts-%06d.json" id)

let quarantine_file t id =
  Filename.concat t.quarantine_dir (Printf.sprintf "job-%06d.json" id)

let results_path t id =
  Filename.concat t.results_dir (Printf.sprintf "job-%06d.jsonl" id)

let journal_dir t id = Filename.concat t.jobs_dir (Printf.sprintf "job-%06d" id)

(* -- submission codec --------------------------------------------------- *)

let render_submission s =
  Rb_util.Json.(
    to_string
      (Obj
         [ ("id", Num (float_of_int s.id));
           ("tenant", Str s.tenant);
           ("backend", Str s.backend);
           ("cases", List (List.map (fun c -> Str c) s.cases));
           ("opts", Exec.Campaign_opts.to_wire_json s.opts) ]))

let parse_submission text =
  let ( let* ) r f = Result.bind r f in
  let open Rb_util.Json in
  let* json = parse text in
  let field name conv =
    match Option.bind (member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "submission field %S missing or mistyped" name)
  in
  let* id = field "id" to_int in
  let* tenant = field "tenant" to_str in
  let* backend = field "backend" to_str in
  let* cases = field "cases" to_list in
  let* cases =
    List.fold_right
      (fun c acc ->
        let* acc = acc in
        match to_str c with
        | Some s -> Ok (s :: acc)
        | None -> Error "non-string case name")
      cases (Ok [])
  in
  let* opts =
    match member "opts" json with
    | Some o -> Exec.Campaign_opts.of_wire_json o
    | None -> Ok Exec.Campaign_opts.default
  in
  Ok { id; tenant; backend; cases; opts }

let render_completion id c =
  Rb_util.Json.(
    to_string
      (Obj
         ([ ("id", Num (float_of_int id));
            ("cases", Num (float_of_int c.cases));
            ("passed", Num (float_of_int c.passed)) ]
         @ match c.failed with None -> [] | Some m -> [ ("failed", Str m) ])))

let parse_completion text =
  match Rb_util.Json.parse text with
  | Error _ -> None
  | Ok j ->
    let open Rb_util.Json in
    let int name = Option.bind (member name j) to_int in
    (match (int "cases", int "passed") with
    | Some cases, Some passed ->
      Some { cases; passed; failed = Option.bind (member "failed" j) to_str }
    | _ -> None)

let render_attempts id ~started ~ended =
  Printf.sprintf {|{"id":%d,"started":%d,"ended":%d}|} id started ended

let parse_attempts text =
  match Rb_util.Json.parse text with
  | Error _ -> None
  | Ok j ->
    let open Rb_util.Json in
    let int name = Option.bind (member name j) to_int in
    (match (int "started", int "ended") with
    | Some s, Some e -> Some (s, e)
    | _ -> None)

let render_quarantine id q =
  Rb_util.Json.(
    to_string
      (Obj
         ([ ("id", Num (float_of_int id));
            ("crashes", Num (float_of_int q.crashes));
            ("reason", Str q.reason);
            ("backtrace", Str q.backtrace) ]
         @
         match q.last_case with
         | None -> []
         | Some c -> [ ("last_case", Str c) ])))

let parse_quarantine text =
  match Rb_util.Json.parse text with
  | Error _ -> None
  | Ok j ->
    let open Rb_util.Json in
    let str name = Option.bind (member name j) to_str in
    (match (Option.bind (member "crashes" j) to_int, str "reason") with
    | Some crashes, Some reason ->
      Some
        { crashes; reason;
          backtrace = Option.value ~default:"" (str "backtrace");
          last_case = str "last_case" }
    | _ -> None)

(* -- fsck ---------------------------------------------------------------- *)

(* Every durable record is classified, none is trusted blindly, and no
   classification is ever fatal: a torn or corrupt record is moved into
   [quarantined/corrupt/] (preserving the bytes for triage), a healable
   one is rewritten clean, and the scan continues. The startup scrub runs
   exactly this over the state dir before any record is parsed for real,
   so the server can be pointed at a state dir that survived kill -9,
   disk rot or a meddling operator and still come up. *)

type fsck_issue = {
  rel_path : string;    (* relative to the state dir *)
  severity : [ `Healed | `Torn | `Corrupt ];
  detail : string;
  action : string;
}

type fsck_report = {
  scanned : int;
  intact : int;
  issues : fsck_issue list;
}

let fsck_count sev r =
  List.length (List.filter (fun i -> i.severity = sev) r.issues)

let severity_label = function
  | `Healed -> "healed"
  | `Torn -> "torn"
  | `Corrupt -> "corrupt"

let fsck_report_to_json r =
  let open Rb_util.Json in
  let num i = Num (float_of_int i) in
  Obj
    [ ("scanned", num r.scanned);
      ("intact", num r.intact);
      ("healed", num (fsck_count `Healed r));
      ("torn", num (fsck_count `Torn r));
      ("corrupt", num (fsck_count `Corrupt r));
      ( "issues",
        List
          (List.map
             (fun i ->
               Obj
                 [ ("path", Str i.rel_path);
                   ("severity", Str (severity_label i.severity));
                   ("detail", Str i.detail);
                   ("action", Str i.action) ])
             r.issues) ) ]

let list_dir dir =
  match Sys.readdir dir with
  | files ->
    let l = Array.to_list files in
    List.sort compare l
  | exception Sys_error _ -> []

let is_tmp_file f =
  (* write_atomic's temporary sibling: `<name>.tmp.<pid>` — left behind
     only when the writer was killed between open and rename *)
  let rec find i =
    i + 5 <= String.length f && (String.sub f i 5 = ".tmp." || find (i + 1))
  in
  find 0

let id_of ~prefix f =
  let pn = String.length prefix in
  if
    String.length f = pn + 11
    && String.sub f 0 pn = prefix
    && Filename.check_suffix f ".json"
  then int_of_string_opt (String.sub f pn 6)
  else None

type fsck_ctx = {
  root : string;
  heal : bool;
  mutable f_scanned : int;
  mutable f_intact : int;
  mutable f_issues : fsck_issue list;  (* reverse order *)
}

let ctx_issue ctx ~rel ~severity ~detail ~action =
  ctx.f_issues <- { rel_path = rel; severity; detail; action } :: ctx.f_issues

let corrupt_dir root = Filename.concat (Filename.concat root "quarantined") "corrupt"

(* Move a bad record out of the scan path, keeping its bytes for triage.
   The destination name flattens the relative path so nothing collides. *)
let set_aside ctx ~rel path =
  if ctx.heal then begin
    Rb_util.Fsfile.mkdir_p (corrupt_dir ctx.root);
    let flat = String.map (fun c -> if c = '/' then '-' else c) rel in
    (match Sys.rename path (Filename.concat (corrupt_dir ctx.root) flat) with
    | () -> ()
    | exception Sys_error _ -> Rb_util.Fsfile.remove_if_exists path);
    Rb_util.Fsfile.fsync_dir (Filename.dirname path);
    "set aside in quarantined/corrupt/"
  end
  else "would set aside in quarantined/corrupt/ (dry run)"

let drop_tmp ctx ~rel path =
  let action =
    if ctx.heal then begin
      Rb_util.Fsfile.remove_if_exists path;
      "removed"
    end
    else "would remove (dry run)"
  in
  ctx_issue ctx ~rel ~severity:`Healed
    ~detail:"stale temporary from an interrupted atomic write" ~action

(* A checksummed single-record file: parseable payload required. *)
let fsck_record ctx ~rel ~parse path =
  ctx.f_scanned <- ctx.f_scanned + 1;
  match Rb_util.Fsfile.read_checked path with
  | Rb_util.Fsfile.Missing -> ()
  | Rb_util.Fsfile.Intact p ->
    if parse p then ctx.f_intact <- ctx.f_intact + 1
    else
      let action = set_aside ctx ~rel path in
      ctx_issue ctx ~rel ~severity:`Corrupt
        ~detail:"checksum fine but payload unparseable" ~action
  | Rb_util.Fsfile.Healed p ->
    if parse p then begin
      let action =
        if ctx.heal then begin
          Rb_util.Fsfile.write_checked path p;
          "rewrote without the trailing junk"
        end
        else "would rewrite without the trailing junk (dry run)"
      in
      ctx_issue ctx ~rel ~severity:`Healed
        ~detail:"verified prefix followed by junk bytes" ~action
    end
    else
      let action = set_aside ctx ~rel path in
      ctx_issue ctx ~rel ~severity:`Corrupt
        ~detail:"healable prefix but payload unparseable" ~action
  | Rb_util.Fsfile.Torn ->
    let action = set_aside ctx ~rel path in
    ctx_issue ctx ~rel ~severity:`Torn
      ~detail:"payload shorter than its header declares" ~action
  | Rb_util.Fsfile.Corrupt why ->
    let action = set_aside ctx ~rel path in
    ctx_issue ctx ~rel ~severity:`Corrupt ~detail:why ~action

(* Results are plain JSONL (their bytes are the wire/byte-identity
   contract, so no header). A torn tail — final line unterminated or
   unparseable — is dropped; a bad interior line means rot in an
   atomically-written file, so the whole file is set aside. *)
let fsck_results ctx ~rel path =
  ctx.f_scanned <- ctx.f_scanned + 1;
  match Rb_util.Fsfile.read path with
  | None -> ()
  | Some text ->
    let n = String.length text in
    let lines = if text = "" then [] else String.split_on_char '\n' text in
    (* a well-formed file ends with '\n', so split yields a trailing "" *)
    let rec check_lines = function
      | [] | [ "" ] -> `Ok
      | [ last ] ->
        (* no trailing newline: the write was cut mid-line *)
        (match Rb_util.Json.parse last with
        | Ok _ | Error _ -> `Torn_tail (String.length last + 0))
      | line :: rest -> (
        match Rb_util.Json.parse line with
        | Ok _ -> check_lines rest
        | Error _ ->
          (* distinguish "bad last full line" (torn) from interior rot *)
          (match rest with
          | [ "" ] -> `Torn_tail (String.length line + 1)
          | _ -> `Interior))
    in
    (match check_lines lines with
    | `Ok -> ctx.f_intact <- ctx.f_intact + 1
    | `Torn_tail tail_len ->
      let keep = String.sub text 0 (n - tail_len) in
      let action =
        if ctx.heal then begin
          Rb_util.Fsfile.write_atomic path keep;
          "dropped the torn trailing line"
        end
        else "would drop the torn trailing line (dry run)"
      in
      ctx_issue ctx ~rel ~severity:`Healed ~detail:"torn trailing line" ~action
    | `Interior ->
      let action = set_aside ctx ~rel path in
      ctx_issue ctx ~rel ~severity:`Corrupt
        ~detail:"unparseable interior line" ~action)

let fsck ?(heal = true) ~dir () =
  let ctx =
    { root = dir; heal; f_scanned = 0; f_intact = 0; f_issues = [] }
  in
  let queue_dir = Filename.concat dir "queue" in
  let results_dir = Filename.concat dir "results" in
  let jobs_dir = Filename.concat dir "jobs" in
  let quarantine_dir = Filename.concat dir "quarantined" in
  (* 1. stale tmp files anywhere in the tree *)
  let sweep_tmp sub d =
    List.iter
      (fun f ->
        if is_tmp_file f then
          drop_tmp ctx ~rel:(Filename.concat sub f) (Filename.concat d f))
      (list_dir d)
  in
  sweep_tmp "queue" queue_dir;
  sweep_tmp "results" results_dir;
  sweep_tmp "quarantined" quarantine_dir;
  List.iter
    (fun j ->
      sweep_tmp (Filename.concat "jobs" j) (Filename.concat jobs_dir j))
    (list_dir jobs_dir);
  (* 2. queue records: submissions, markers, attempt counters *)
  let parse_ok p = function
    | `Sub -> Result.is_ok (parse_submission p)
    | `Done -> parse_completion p <> None
    | `Cancel -> Result.is_ok (Rb_util.Json.parse p)
    | `Attempts -> parse_attempts p <> None
  in
  let queue_files = list_dir queue_dir in
  let kind_of f =
    if id_of ~prefix:"job-" f <> None then Some `Sub
    else if id_of ~prefix:"done-" f <> None then Some `Done
    else if id_of ~prefix:"cancelled-" f <> None then Some `Cancel
    else if id_of ~prefix:"attempts-" f <> None then Some `Attempts
    else None
  in
  List.iter
    (fun f ->
      match kind_of f with
      | None -> ()
      | Some kind ->
        fsck_record ctx ~rel:(Filename.concat "queue" f)
          ~parse:(fun p -> parse_ok p kind)
          (Filename.concat queue_dir f))
    queue_files;
  (* 3. marker consistency: a done and a cancelled marker for the same job
     conflict — completion wins (the work demonstrably ran); markers for a
     job with no admission record are orphans. Re-list: step 2 may have
     set bad records aside. *)
  let queue_files = list_dir queue_dir in
  let ids prefix = List.filter_map (id_of ~prefix) queue_files in
  let job_ids = ids "job-" in
  let done_ids = ids "done-" in
  let orphan_or_dup f id reason =
    let rel = Filename.concat "queue" f in
    let action = set_aside ctx ~rel (Filename.concat queue_dir f) in
    ctx_issue ctx ~rel ~severity:`Healed
      ~detail:(Printf.sprintf "%s (job %d)" reason id)
      ~action
  in
  List.iter
    (fun f ->
      match
        ( id_of ~prefix:"done-" f, id_of ~prefix:"cancelled-" f,
          id_of ~prefix:"attempts-" f )
      with
      | Some id, _, _ when not (List.mem id job_ids) ->
        orphan_or_dup f id "marker without an admission record"
      | _, Some id, _ when not (List.mem id job_ids) ->
        orphan_or_dup f id "marker without an admission record"
      | _, _, Some id when not (List.mem id job_ids) ->
        orphan_or_dup f id "counter without an admission record"
      | _, Some id, _ when List.mem id done_ids ->
        orphan_or_dup f id "cancelled marker conflicting with a done marker"
      | _ -> ())
    queue_files;
  (* 4. stitched results *)
  List.iter
    (fun f ->
      if Filename.check_suffix f ".jsonl" then
        fsck_results ctx ~rel:(Filename.concat "results" f)
          (Filename.concat results_dir f))
    (list_dir results_dir);
  (* 5. per-job journals: a garbage record segment or manifest would make
     Journal.load refuse (or silently drop a valid tail), burning a crash
     attempt on the next dispatch — set the bad segment aside so resume
     recomputes from the surviving frontier instead *)
  List.iter
    (fun j ->
      let jdir = Filename.concat jobs_dir j in
      List.iter
        (fun f ->
          let is_rec =
            String.length f > 4
            && String.sub f 0 4 = "rec-"
            && Filename.check_suffix f ".json"
          in
          if is_rec || f = "MANIFEST.json" then begin
            ctx.f_scanned <- ctx.f_scanned + 1;
            let path = Filename.concat jdir f in
            match Option.map Rb_util.Json.parse (Rb_util.Fsfile.read path) with
            | Some (Ok _) -> ctx.f_intact <- ctx.f_intact + 1
            | None -> ()
            | Some (Error e) ->
              let rel = Filename.concat (Filename.concat "jobs" j) f in
              let action = set_aside ctx ~rel path in
              ctx_issue ctx ~rel ~severity:`Healed
                ~detail:
                  (Printf.sprintf "garbage journal segment (%s); resume will \
                                   recompute past this frontier" e)
                ~action
          end)
        (list_dir jdir))
    (list_dir jobs_dir);
  (* 6. quarantine records themselves *)
  List.iter
    (fun f ->
      if id_of ~prefix:"job-" f <> None then
        fsck_record ctx ~rel:(Filename.concat "quarantined" f)
          ~parse:(fun p -> parse_quarantine p <> None)
          (Filename.concat quarantine_dir f))
    (list_dir quarantine_dir);
  { scanned = ctx.f_scanned;
    intact = ctx.f_intact;
    issues = List.rev ctx.f_issues }

(* -- scan / open -------------------------------------------------------- *)

let scan_ids dir prefix = List.filter_map (id_of ~prefix) (list_dir dir)

let read_record path = Rb_util.Fsfile.(checked_payload (read_checked path))

let open_dir ?(scrub = true) ~dir () =
  let t =
    { dir;
      queue_dir = Filename.concat dir "queue";
      results_dir = Filename.concat dir "results";
      jobs_dir = Filename.concat dir "jobs";
      quarantine_dir = Filename.concat dir "quarantined";
      statuses = Hashtbl.create 64;
      subs = Hashtbl.create 64;
      attempts = Hashtbl.create 64;
      next_id = 0 }
  in
  Rb_util.Fsfile.mkdir_p t.queue_dir;
  Rb_util.Fsfile.mkdir_p t.results_dir;
  Rb_util.Fsfile.mkdir_p t.jobs_dir;
  Rb_util.Fsfile.mkdir_p t.quarantine_dir;
  (* startup scrub: classify every record, heal what can be healed, set
     aside what cannot — never fatal, so a rotted state dir degrades to
     "some jobs re-run or need triage", not "the fleet is down" *)
  if scrub then ignore (fsck ~heal:true ~dir () : fsck_report);
  (* Admission records are the source of truth; markers refine them. After
     the scrub everything left on disk is checksum-verified; a record that
     still fails to parse is skipped, not fatal. *)
  List.iter
    (fun id ->
      match Option.map parse_submission (read_record (job_file t id)) with
      | Some (Ok sub) ->
        Hashtbl.replace t.subs id sub;
        Hashtbl.replace t.statuses id Queued
      | Some (Error _) | None -> ())
    (List.sort compare (scan_ids t.queue_dir "job-"));
  List.iter
    (fun id ->
      if Hashtbl.mem t.subs id then
        match Option.bind (read_record (done_file t id)) parse_completion with
        | Some c -> Hashtbl.replace t.statuses id (Done c)
        | None -> ())
    (scan_ids t.queue_dir "done-");
  List.iter
    (fun id ->
      if Hashtbl.mem t.subs id && not (Sys.file_exists (done_file t id)) then
        Hashtbl.replace t.statuses id Cancelled)
    (scan_ids t.queue_dir "cancelled-");
  List.iter
    (fun id ->
      if Hashtbl.mem t.subs id then
        match Option.bind (read_record (attempts_file t id)) parse_attempts with
        | Some (started, ended) -> Hashtbl.replace t.attempts id (started, ended)
        | None -> ())
    (scan_ids t.queue_dir "attempts-");
  List.iter
    (fun id ->
      if Hashtbl.mem t.subs id then
        match
          Option.bind (read_record (quarantine_file t id)) parse_quarantine
        with
        | Some q -> Hashtbl.replace t.statuses id (Quarantined q)
        | None -> ())
    (scan_ids t.quarantine_dir "job-");
  t.next_id <-
    1 + Hashtbl.fold (fun id _ acc -> max id acc) t.subs (-1);
  t

let dir t = t.dir

let submission t id = Hashtbl.find_opt t.subs id

let status t id = Hashtbl.find_opt t.statuses id

let pending t =
  Hashtbl.fold
    (fun id s acc -> match s with Queued -> id :: acc | _ -> acc)
    t.statuses []
  |> List.sort compare
  |> List.map (fun id -> Hashtbl.find t.subs id)

let counts t =
  Hashtbl.fold
    (fun _ s (q, d, c, z) ->
      match s with
      | Queued -> (q + 1, d, c, z)
      | Done _ -> (q, d + 1, c, z)
      | Cancelled -> (q, d, c + 1, z)
      | Quarantined _ -> (q, d, c, z + 1))
    t.statuses (0, 0, 0, 0)

(* -- transitions (each durable before it is acknowledged) ---------------- *)

let admit t ~tenant ~backend ~cases ~opts =
  let id = t.next_id in
  let sub = { id; tenant; backend; cases; opts } in
  (* write_checked fsyncs the record and its directory entry: once this
     returns, a kill -9 cannot lose the acceptance we are about to send.
     If it raises, nothing below runs and the id stays free. *)
  Rb_util.Fsfile.write_checked (job_file t id) (render_submission sub);
  t.next_id <- id + 1;
  Hashtbl.replace t.subs id sub;
  Hashtbl.replace t.statuses id Queued;
  sub

let cancel t id =
  match Hashtbl.find_opt t.statuses id with
  | Some Queued ->
    Rb_util.Fsfile.write_checked (cancelled_file t id)
      (Printf.sprintf {|{"id":%d}|} id);
    Hashtbl.replace t.statuses id Cancelled;
    true
  | _ -> false

(* -- crash accounting ---------------------------------------------------- *)

(* The per-job crash counter is a tiny durable WAL: [started] bumps before
   the job is handed to a runner slot, [ended] catches up when the attempt
   concludes under the server's control (completion, controlled failure,
   or cancellation). The difference is exactly the number of attempts that
   ended in a crash — a worker process dying, a watchdog kill, or the
   whole server being killed with the job in flight — and it counts
   *across restarts*, because it is read back at startup. *)

let attempt_counts t id =
  Option.value ~default:(0, 0) (Hashtbl.find_opt t.attempts id)

let crash_count t id =
  let started, ended = attempt_counts t id in
  max 0 (started - ended)

let begin_attempt t id =
  let started, ended = attempt_counts t id in
  let started = started + 1 in
  Rb_util.Fsfile.write_checked (attempts_file t id)
    (render_attempts id ~started ~ended);
  Hashtbl.replace t.attempts id (started, ended)

let end_attempt t id =
  let started, _ = attempt_counts t id in
  Rb_util.Fsfile.write_checked (attempts_file t id)
    (render_attempts id ~started ~ended:started);
  Hashtbl.replace t.attempts id (started, started)

(* -- quarantine ---------------------------------------------------------- *)

(* The poisoned job's last journaled case — the final frame the runner
   completed before dying — preserved in the quarantine record so triage
   starts with "it died right after X". *)
let last_journaled_case t id =
  let jdir = journal_dir t id in
  let recs =
    List.filter
      (fun f ->
        String.length f > 4
        && String.sub f 0 4 = "rec-"
        && Filename.check_suffix f ".json")
      (list_dir jdir)
  in
  match List.rev recs with
  | [] -> None
  | last :: _ ->
    Option.bind (Rb_util.Fsfile.read (Filename.concat jdir last)) (fun text ->
        match Rb_util.Json.parse text with
        | Error _ -> None
        | Ok j -> Option.bind (Rb_util.Json.member "case" j) Rb_util.Json.to_str)

let quarantine t id ~reason ~backtrace =
  let q =
    { crashes = crash_count t id;
      reason;
      backtrace;
      last_case = last_journaled_case t id }
  in
  Rb_util.Fsfile.write_checked (quarantine_file t id) (render_quarantine id q);
  Hashtbl.replace t.statuses id (Quarantined q);
  q

let quarantined t =
  Hashtbl.fold
    (fun id s acc ->
      match s with Quarantined q -> (id, q) :: acc | _ -> acc)
    t.statuses []
  |> List.sort compare

(* -- results ------------------------------------------------------------- *)

let write_results path reports =
  Rb_util.Fsfile.write_channel path (fun oc ->
      Rustbrain.Report.emit_jsonl oc (List.to_seq reports))

let complete t id completion =
  Rb_util.Fsfile.write_checked (done_file t id) (render_completion id completion);
  Hashtbl.replace t.statuses id (Done completion);
  end_attempt t id

let read_results t id = Rb_util.Fsfile.read (results_path t id)

(* Journaled case-repairs for a running job — progress visible across a
   kill because each record segment is its own durable file. *)
let progress t id =
  match Sys.readdir (journal_dir t id) with
  | exception Sys_error _ -> 0
  | files ->
    Array.fold_left
      (fun n f ->
        if
          String.length f > 4
          && String.sub f 0 4 = "rec-"
          && Filename.check_suffix f ".json"
        then n + 1
        else n)
      0 files
