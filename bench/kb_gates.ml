(* Knowledge-base gate (dune runtest alias kb-smoke) and the two child
   processes it re-execs this binary as (kb-job-child, kb-append-child). *)

open Harness

(* kb-smoke helper, run as a fresh process: one 1-seed job over four cases
   against the writable KB slice [slice], journaled under [journal].
   [mode] is "kill2" (fresh, killed after 2 records), "resume" or "fresh".
   Writes "replayed R recomputed C", then each report's JSON, to [out]. *)
let kb_job_child ~slice ~journal ~mode ~out =
  let cases = List.filteri (fun i _ -> i mod 27 = 0 && i < 108) Dataset.Corpus.all in
  let runner =
    Exec.Backends.rustbrain
      ~config:{ (Paper.rustbrain_cfg ~seed:1 ()) with Rustbrain.Pipeline.kb_dir = Some slice }
      ()
  in
  let kill_after, mode =
    match mode with
    | "kill2" -> (Some 2, Exec.Checkpoint.Fresh)
    | "resume" -> (None, Exec.Checkpoint.Resume)
    | _ -> (None, Exec.Checkpoint.Fresh)
  in
  let o =
    Exec.Checkpoint.run ~domains:1 ?kill_after ~dir:journal ~mode
      (Exec.Scheduler.seeded_jobs runner ~seeds:[ 1 ] cases)
  in
  Rb_util.Fsfile.write_atomic out
    (String.concat "\n"
       (Printf.sprintf "replayed %d recomputed %d" o.Exec.Checkpoint.replayed
          o.Exec.Checkpoint.recomputed
       :: List.map Rustbrain.Report.to_json
            (List.concat_map
               (fun r -> r.Exec.Scheduler.reports)
               o.Exec.Checkpoint.results)))

let kb_smoke () =
  section "KB smoke — persistent-store determinism, crash healing, compaction";
  let failures = ref 0 in
  let failf fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "FAIL kb: %s\n" s;
        incr failures)
      fmt
  in
  let fresh_dir tag =
    let d = Filename.temp_file (Printf.sprintf "rb-kb-%s" tag) "" in
    Sys.remove d;
    d
  in
  let payload i = Rb_util.Json.Obj [ ("i", Rb_util.Json.Num (float_of_int i)) ] in
  let vec4 i = [| float_of_int i; 0.5; 0.0; 1.0 |] in

  (* 1+2: a campaign against a fresh persistent store must be byte-identical
     to the in-memory one (a fresh store holds exactly the default seeds),
     and sequential vs domain-parallel scheduling must not matter — the
     process-frozen snapshot makes every session see the same KB whatever
     order sessions are created in. *)
  let dir = fresh_dir "campaign" in
  let cases = List.filteri (fun i _ -> i mod 8 = 0) Dataset.Corpus.all in
  let runner_mem = Exec.Backends.rustbrain ~config:(Paper.rustbrain_cfg ~seed:1 ()) () in
  let runner_kb =
    Exec.Backends.rustbrain
      ~config:
        { (Paper.rustbrain_cfg ~seed:1 ()) with Rustbrain.Pipeline.kb_dir = Some dir }
      ()
  in
  let mem, _ = Exec.Scheduler.run_seeded ~domains:1 runner_mem ~seeds:[ 1; 2 ] cases in
  let per_seq, _ =
    Exec.Scheduler.run_seeded ~domains:1 runner_kb ~seeds:[ 1; 2 ] cases
  in
  let per_par, _ =
    Exec.Scheduler.run_seeded ~domains:2 runner_kb ~seeds:[ 1; 2 ] cases
  in
  if mem <> per_seq then
    failf "fresh persistent campaign diverges from the in-memory one";
  if per_seq <> per_par then
    failf "persistent campaign: parallel reports differ from sequential";
  Printf.printf
    "campaign identity: in-memory==persistent %b, parallel==sequential %b\n"
    (mem = per_seq) (per_seq = per_par);

  (* learned entries are on disk for the next process, while this process's
     snapshot stays frozen at the seed set *)
  (match Knowledge.Segment.load dir with
  | Error e -> failf "post-campaign load: %s" e
  | Ok r ->
    let seed_count = List.length Miri.Diag.all_kinds in
    let on_disk = List.length r.Knowledge.Segment.records in
    if on_disk <= seed_count then
      failf "campaign learned nothing durable (%d records on disk)" on_disk;
    (match
       Knowledge.Kb.open_dir ~dir ~clock:(Rb_util.Simclock.create ()) ()
     with
    | Error e -> failf "reopen: %s" e
    | Ok kb ->
      let snap = Knowledge.Kb.size kb in
      if snap <> seed_count then
        failf "snapshot not frozen: reopen in-process sees %d entries" snap;
      Printf.printf
        "durable learning: %d records on disk, frozen in-process snapshot %d\n"
        on_disk snap));

  (* 3: kill -9 a child mid-append, then heal. Appends are framed + fsynced,
     so at worst the final frame is torn; fsck truncates it and every load
     after that agrees. The child is a fresh process image (the campaign
     above created domains, after which OCaml 5 refuses to fork). *)
  let dir2 = fresh_dir "kill9" in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "kb-append-child"; dir2 |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Unix.sleepf 0.3;
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (match Knowledge.Segment.fsck ~fix:true ~expect:(4, 1) dir2 with
  | Error e -> failf "fsck after kill -9: %s" e
  | Ok r ->
    if r.Knowledge.Segment.records = [] then
      failf "kill -9 store recovered no records";
    let a = Knowledge.Segment.load ~expect:(4, 1) dir2 in
    let b = Knowledge.Segment.load ~expect:(4, 1) dir2 in
    if a <> b then failf "load after healing is not deterministic";
    (* the dead writer's lock must not outlive it: reopening appends fine *)
    (match Knowledge.Segment.open_writer ~expect:(4, 1) ~dir:dir2 () with
    | Error e -> failf "reopen after kill -9: %s" e
    | Ok (w, rep) ->
      let n0 = List.length rep.Knowledge.Segment.records in
      (match Knowledge.Segment.append w ~vec:(vec4 n0) ~payload:(payload n0) with
      | Ok id when id = n0 -> ()
      | Ok id -> failf "ids not dense after recovery: got %d, wanted %d" id n0
      | Error e -> failf "append after recovery: %s" e);
      Knowledge.Segment.close w;
      Printf.printf
        "kill -9 recovery: %d records survive, healed %d tail byte(s), ids dense\n"
        n0 r.Knowledge.Segment.healed_tail_bytes));

  (* 4: a deterministically torn tail heals to the last whole frame. Work on
     a copy so the original writer's view stays untouched. *)
  let dir3 = fresh_dir "torn" in
  (match Knowledge.Segment.open_writer ~expect:(4, 1) ~dir:dir3 () with
  | Error e -> failf "torn: open_writer: %s" e
  | Ok (w, _) ->
    for i = 0 to 9 do
      ignore (Knowledge.Segment.append w ~vec:(vec4 i) ~payload:(payload i))
    done;
    let copy = fresh_dir "torn-copy" in
    if
      Sys.command
        (Printf.sprintf "cp -r %s %s" (Filename.quote dir3) (Filename.quote copy))
      <> 0
    then failf "torn: cp failed"
    else begin
      let tail = Filename.concat copy "tail.log" in
      let size = (Unix.stat tail).Unix.st_size in
      Unix.truncate tail (size - 7);
      match Knowledge.Segment.fsck ~fix:true ~expect:(4, 1) copy with
      | Error e -> failf "torn: fsck: %s" e
      | Ok r ->
        if List.length r.Knowledge.Segment.records <> 9 then
          failf "torn tail healed to %d records, wanted 9"
            (List.length r.Knowledge.Segment.records);
        if r.Knowledge.Segment.healed_tail_bytes <= 0 then
          failf "torn tail reported no healed bytes";
        Printf.printf "torn tail: healed %d byte(s), 9/10 records survive\n"
          r.Knowledge.Segment.healed_tail_bytes
    end;
    Knowledge.Segment.close w);

  (* 5: sealing + compaction are load-equivalent, and duplicate ids (the
     compaction-crash window: merged segment written, inputs not yet
     deleted) resolve first-wins at load *)
  let dir4 = fresh_dir "compact" in
  (match
     Knowledge.Segment.open_writer ~expect:(4, 1) ~seal_every:4 ~compact_at:3
       ~dir:dir4 ()
   with
  | Error e -> failf "compact: open_writer: %s" e
  | Ok (w, _) ->
    for i = 0 to 25 do
      ignore (Knowledge.Segment.append w ~vec:(vec4 i) ~payload:(payload i))
    done;
    let before = Knowledge.Segment.records w in
    Knowledge.Segment.compact w;
    if Knowledge.Segment.records w <> before then
      failf "compaction changed the writer's record set";
    Knowledge.Segment.close w;
    (match Knowledge.Segment.load ~expect:(4, 1) dir4 with
    | Error e -> failf "compact: load: %s" e
    | Ok r ->
      if r.Knowledge.Segment.records <> before then
        failf "compaction is not load-equivalent";
      (* duplicate the surviving segment under a later name *)
      let segs =
        Sys.readdir dir4 |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".seg")
      in
      (match segs with
      | seg :: _ ->
        if
          Sys.command
            (Printf.sprintf "cp %s %s"
               (Filename.quote (Filename.concat dir4 seg))
               (Filename.quote (Filename.concat dir4 "seg-00009999.seg")))
          <> 0
        then failf "compact: cp failed";
        (match Knowledge.Segment.load ~expect:(4, 1) dir4 with
        | Error e -> failf "compact: load with duplicates: %s" e
        | Ok r2 ->
          if r2.Knowledge.Segment.records <> before then
            failf "duplicate ids were not resolved first-wins";
          if r2.Knowledge.Segment.duplicates = 0 then
            failf "duplicate segment reported no duplicates";
          Printf.printf
            "compaction: load-equivalent, %d duplicate(s) resolved first-wins\n"
            r2.Knowledge.Segment.duplicates)
      | [] -> failf "compaction left no segment")));

  (* 6: resume against a persistent KB. Every run is a fresh process: in
     one process the registry would keep serving the rows it read first.
     A 1-seed, 4-case job on a writable slice is killed after 2 journaled
     records, then (a) rows appended past the slice's high-water id leave
     the snapshot usable: 2 replayed, reports byte-identical to an
     uninterrupted run; (b) the rows below the mark replaced (same ids,
     other content) make it unusable: nothing replayed, and the reports
     are a fresh run's on the replaced rows, never a mix of the two;
     (c) as (b), with the last record torn so the snapshot is out of step
     and never consulted: the recompute's re-run of the surviving record
     disagrees with it, so again nothing more is journaled and no later
     resume mixes the two slices *)
  let kb_job ~slice ~journal mode =
    let out = fresh_dir "job-out" in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "kb-job-child"; slice; journal; mode; out |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failf "kb-job-child %s died" mode);
    let lines =
      String.split_on_char '\n' (Option.value ~default:"" (Rb_util.Fsfile.read out))
    in
    Rb_util.Fsfile.remove_if_exists out;
    match lines with head :: reports -> (head, reports) | [] -> ("", [])
  in
  let seed_count = List.length Miri.Diag.all_kinds in
  let rewrite dir f =
    match Knowledge.Segment.open_writer
        ~expect:(Knowledge.Featvec.dim, Knowledge.Featvec.version) ~dir () with
    | Error e -> failf "opening %s: %s" dir e
    | Ok (w, _) ->
      f (fun vec entry ->
          match
            Knowledge.Segment.append w ~vec ~payload:(Knowledge.Kb.entry_to_json entry)
          with
          | Ok _ -> ()
          | Error e -> failf "appending to %s: %s" dir e);
      Knowledge.Segment.close w
  in
  let seed_rows dir =
    match Knowledge.Segment.load dir with
    | Error e ->
      failf "loading %s: %s" dir e;
      []
    | Ok r ->
      List.filter_map
        (fun (r : Knowledge.Segment.record) ->
          if r.Knowledge.Segment.id >= seed_count then None
          else
            Option.map
              (fun e -> (r.Knowledge.Segment.vec, e))
              (Knowledge.Kb.entry_of_json r.Knowledge.Segment.payload))
        r.Knowledge.Segment.records
  in
  let dirs = ref [] in
  let dir tag =
    let d = fresh_dir tag in
    dirs := d :: !dirs;
    d
  in
  let _, uninterrupted = kb_job ~slice:(dir "ref-a") ~journal:(dir "ref-a-j") "fresh" in
  (* (a) *)
  let slice_a = dir "resume-a" and journal_a = dir "resume-a-j" in
  ignore (kb_job ~slice:slice_a ~journal:journal_a "kill2");
  let past = seed_rows slice_a in
  rewrite slice_a (fun add ->
      List.iter
        (fun (vec, (e : Knowledge.Kb.entry)) ->
          add vec { e with Knowledge.Kb.advice = "appended past the mark" })
        past);
  let head_a, resumed_a = kb_job ~slice:slice_a ~journal:journal_a "resume" in
  if head_a <> "replayed 2 recomputed 2" then
    failf "appends past the mark: %S, want 2 replayed" head_a;
  if resumed_a <> uninterrupted then
    failf "appends past the mark: resumed reports differ from an uninterrupted run";
  (* the slice's seed rows, rewritten with other advice and fix under the
     same ids: everything past them, the killed run's learns included, is
     gone *)
  let replace_seed_rows slice =
    let rows = seed_rows slice in
    let replaced = dir "replaced" in
    rewrite replaced (fun add ->
        List.iteri
          (fun i (vec, (e : Knowledge.Kb.entry)) ->
            add vec
              { e with
                Knowledge.Kb.advice =
                  Printf.sprintf "replaced row %d: %s" i e.Knowledge.Kb.advice;
                recommended = Repairs.Rule.Assert })
          rows);
    if
      Sys.command
        (Printf.sprintf "rm -rf %s && mv %s %s" (Filename.quote slice)
           (Filename.quote replaced) (Filename.quote slice))
      <> 0
    then failf "replacing the rows below the mark failed"
  in
  (* (b) *)
  let slice_b = dir "resume-b" and journal_b = dir "resume-b-j" in
  ignore (kb_job ~slice:slice_b ~journal:journal_b "kill2");
  replace_seed_rows slice_b;
  let on_replaced = dir "on-replaced" and on_replaced_j = dir "on-replaced-j" in
  if
    Sys.command
      (Printf.sprintf "cp -r %s %s" (Filename.quote slice_b) (Filename.quote on_replaced))
    <> 0
  then failf "copying the replaced rows failed";
  let _, fresh_replaced = kb_job ~slice:on_replaced ~journal:on_replaced_j "fresh" in
  if fresh_replaced = uninterrupted then
    failf "replacing the rows changed no report: a mix would go unseen";
  let head_b, resumed_b = kb_job ~slice:slice_b ~journal:journal_b "resume" in
  if head_b <> "replayed 0 recomputed 4" then
    failf "rows replaced below the mark: %S, want the job recomputed" head_b;
  if resumed_b <> fresh_replaced then
    failf "rows replaced below the mark: reports differ from a fresh run on them";
  let head_b2, _ = kb_job ~slice:slice_b ~journal:journal_b "resume" in
  if head_b2 <> "replayed 0 recomputed 4" then
    failf "a second resume on the replaced rows: %S, want nothing replayed" head_b2;
  (* (c) *)
  (match (fresh_replaced, uninterrupted) with
  | r :: _, r' :: _ when r <> r' -> ()
  | _ -> failf "replacing the rows left the first report as it was: a mix would go unseen");
  let slice_c = dir "resume-c" and journal_c = dir "resume-c-j" in
  ignore (kb_job ~slice:slice_c ~journal:journal_c "kill2");
  let last = Filename.concat journal_c "rec-000001.json" in
  (match Unix.stat last with
  | st -> Unix.truncate last (st.Unix.st_size - 5)
  | exception Unix.Unix_error _ -> failf "no second record to tear");
  replace_seed_rows slice_c;
  let head_c, resumed_c = kb_job ~slice:slice_c ~journal:journal_c "resume" in
  if head_c <> "replayed 0 recomputed 4" then
    failf "a torn tail on replaced rows: %S, want the job recomputed" head_c;
  if resumed_c <> fresh_replaced then
    failf "a torn tail on replaced rows: reports differ from a fresh run on them";
  let head_c2, _ = kb_job ~slice:slice_c ~journal:journal_c "resume" in
  if head_c2 <> "replayed 0 recomputed 4" then
    failf "a second resume after a torn tail on replaced rows: %S, want nothing \
           replayed" head_c2;
  Printf.printf
    "resume on a persistent KB: appends past the mark %s, rows replaced below it \
     %s, and with a torn tail %s\n"
    head_a head_b head_c;
  List.iter
    (fun d -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d))))
    !dirs;

  if !failures > 0 then exit 1;
  print_endline "kb smoke ok"

(* kb-smoke helper, run as a fresh process: append 4-dim records to the
   segment store in [dir] until SIGKILLed *)
let kb_append_child ~dir =
  match Knowledge.Segment.open_writer ~expect:(4, 1) ~dir () with
  | Error _ -> exit 2
  | Ok (w, _) ->
    let i = ref 0 in
    while true do
      ignore
        (Knowledge.Segment.append w
           ~vec:[| float_of_int !i; 0.5; 0.0; 1.0 |]
           ~payload:(Rb_util.Json.Obj [ ("i", Rb_util.Json.Num (float_of_int !i)) ]));
      incr i
    done
