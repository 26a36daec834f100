(* The knowledge-base family: `kb-init`, `kb-stats` and `kb-fsck` on a
   persistent segment store (the directory campaigns use with --kb-dir). *)

open Cmdliner

let kb_store_dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
         ~doc:"The knowledge-base store directory (the one campaigns use \
               with $(b,--kb-dir)).")

let kb_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let kb_report_json (r : Knowledge.Segment.load_report) extra =
  let num i = Rb_util.Json.Num (float_of_int i) in
  Rb_util.Json.Obj
    ([ ("records", num (List.length r.Knowledge.Segment.records));
       ("segments", num r.Knowledge.Segment.segments);
       ("tail_records", num r.Knowledge.Segment.tail_records);
       ("healed_tail_bytes", num r.Knowledge.Segment.healed_tail_bytes);
       ("corrupt_segments", num r.Knowledge.Segment.corrupt_segments);
       ("mismatched", num r.Knowledge.Segment.mismatched);
       ("duplicates", num r.Knowledge.Segment.duplicates) ]
    @ extra)

let kb_category_histogram (r : Knowledge.Segment.load_report) =
  List.fold_left
    (fun acc (rec_ : Knowledge.Segment.record) ->
      let key =
        match Knowledge.Kb.entry_of_json rec_.Knowledge.Segment.payload with
        | Some e -> Miri.Diag.kind_name e.Knowledge.Kb.category
        | None -> "(undecodable)"
      in
      let n = Option.value (List.assoc_opt key acc) ~default:0 in
      (key, n + 1) :: List.remove_assoc key acc)
    [] r.Knowledge.Segment.records
  |> List.sort compare

let kb_init_cmd =
  let run dir =
    let clock = Rb_util.Simclock.create () in
    match Knowledge.Kb.open_dir ~dir ~clock () with
    | Error e ->
      Printf.eprintf "kb-init: %s\n" e;
      1
    | Ok kb ->
      Printf.printf "kb-init: store at %s ready with %d entries\n" dir
        (Knowledge.Kb.size kb);
      0
  in
  Cmd.v
    (Cmd.info "kb-init"
       ~doc:"Create (and seed with the built-in per-category expertise) a \
             persistent knowledge-base store, or verify an existing one \
             opens writable. Idempotent.")
    Term.(const run $ kb_store_dir_arg)

let kb_stats_cmd =
  let run dir json =
    match Knowledge.Segment.load dir with
    | Error e ->
      Printf.eprintf "kb-stats: %s\n" e;
      1
    | Ok report ->
      let hist = kb_category_histogram report in
      if json then
        print_endline
          (Rb_util.Json.to_string
             (kb_report_json report
                [ ( "categories",
                    Rb_util.Json.Obj
                      (List.map
                         (fun (k, n) ->
                           (k, Rb_util.Json.Num (float_of_int n)))
                         hist) ) ]))
      else begin
        Printf.printf
          "kb-stats: %d entries in %d segments (+%d in the tail log)\n"
          (List.length report.Knowledge.Segment.records)
          report.Knowledge.Segment.segments
          report.Knowledge.Segment.tail_records;
        List.iter (fun (k, n) -> Printf.printf "  %-20s %d\n" k n) hist;
        if report.Knowledge.Segment.mismatched > 0
           || report.Knowledge.Segment.corrupt_segments > 0 then
          Printf.printf
            "  (%d mismatched record(s), %d corrupt segment(s) not counted; \
             run kb-fsck)\n"
            report.Knowledge.Segment.mismatched
            report.Knowledge.Segment.corrupt_segments
      end;
      0
  in
  Cmd.v
    (Cmd.info "kb-stats"
       ~doc:"Summarize a persistent knowledge-base store: live entries, \
             segment/tail layout, per-category histogram, and anything a \
             load had to skip.")
    Term.(const run $ kb_store_dir_arg $ kb_json_arg)

let kb_fsck_cmd =
  let dry_run =
    Arg.(value & flag & info [ "dry-run" ]
           ~doc:"Classify and report only; heal nothing, move nothing.")
  in
  let run dir dry_run json =
    match Knowledge.Segment.fsck ~fix:(not dry_run) dir with
    | Error e ->
      Printf.eprintf "kb-fsck: %s\n" e;
      1
    | Ok report ->
      if json then
        print_endline (Rb_util.Json.to_string (kb_report_json report []))
      else
        Printf.printf
          "kb-fsck%s: %d live records (%d segments, %d tail) — %d torn tail \
           bytes %s, %d corrupt segment(s) %s, %d mismatched record(s) %s, \
           %d duplicate id(s) dropped\n"
          (if dry_run then " (dry run)" else "")
          (List.length report.Knowledge.Segment.records)
          report.Knowledge.Segment.segments
          report.Knowledge.Segment.tail_records
          report.Knowledge.Segment.healed_tail_bytes
          (if dry_run then "found" else "healed")
          report.Knowledge.Segment.corrupt_segments
          (if dry_run then "found" else "quarantined")
          report.Knowledge.Segment.mismatched
          (if dry_run then "found" else "quarantined")
          report.Knowledge.Segment.duplicates;
      (* a torn tail heals routinely (it is the expected kill -9 residue);
         corrupt or mismatched data means the store needed attention *)
      if
        report.Knowledge.Segment.corrupt_segments > 0
        || report.Knowledge.Segment.mismatched > 0
      then 1
      else 0
  in
  Cmd.v
    (Cmd.info "kb-fsck"
       ~doc:"Scan (and heal) a persistent knowledge-base store: verify every \
             segment checksum and tail frame, truncate torn tail bytes, set \
             corrupt segments aside under quarantined/ with their bytes \
             preserved, and quarantine dimension-mismatched records. The \
             same scrub runs at every writable open; this is the offline \
             entry point. Exits 1 if anything was corrupt or mismatched.")
    Term.(const run $ kb_store_dir_arg $ dry_run $ kb_json_arg)
