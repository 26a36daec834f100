(* Knowledge base: Algorithm-1 pruning, vectorization, retrieval. *)

let program_with_noise =
  Minirust.Parser.parse
    {|
fn irrelevant_math(a: i64) -> i64 {
    let mut t = a * 2;
    let mut u = t + 3;
    return u;
}

fn main() {
    let mut noise1 = 1;
    let mut noise2 = noise1 + 2;
    print(noise2);
    let mut buf = 0 as *mut i64;
    unsafe {
        buf = alloc(8, 8) as *mut i64;
        *buf = 5;
        print(*buf);
        dealloc(buf as *mut i8, 8, 8);
    }
}
|}

let test_prune_keeps_unsafe () =
  let sketch = Knowledge.Prune.prune program_with_noise [] in
  let rendered = Knowledge.Prune.render sketch in
  Alcotest.(check bool) "keeps the alloc" true (Helpers.contains rendered "alloc(8i64, 8i64)");
  Alcotest.(check bool) "keeps the dealloc" true (Helpers.contains rendered "dealloc");
  Alcotest.(check bool) "drops pure-math noise" false (Helpers.contains rendered "noise2 + ")

let test_prune_drops_counted () =
  let sketch = Knowledge.Prune.prune program_with_noise [] in
  Alcotest.(check bool) "something was dropped" true (sketch.Knowledge.Prune.dropped > 0)

let test_prune_keeps_hinted () =
  (* the statement a diagnostic points at is kept even if not unsafe *)
  let target = ref (-1) in
  Minirust.Visit.iter_stmts
    (fun st ->
      match st.Minirust.Ast.s with
      | Minirust.Ast.S_print _ when !target < 0 -> target := st.Minirust.Ast.sid
      | _ -> ())
    program_with_noise;
  let diag = { (Miri.Diag.make Miri.Diag.Validity "x") with Miri.Diag.stmt_hint = !target } in
  let sketch = Knowledge.Prune.prune program_with_noise [ diag ] in
  Alcotest.(check bool) "hinted stmt kept" true
    (List.exists (fun st -> st.Minirust.Ast.sid = !target) sketch.Knowledge.Prune.kept_stmts)

let test_prune_keeps_dependencies () =
  (* `buf` is used by retained unsafe statements, so its definition stays *)
  let sketch = Knowledge.Prune.prune program_with_noise [] in
  let rendered = Knowledge.Prune.render sketch in
  Alcotest.(check bool) "dependency definition kept" true
    (Helpers.contains rendered "let mut buf")

(* vectors *)

let test_vector_normalized () =
  let v = Knowledge.Featvec.of_program program_with_noise [] in
  let norm = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 v) in
  if abs_float (norm -. 1.0) > 1e-6 && norm <> 0.0 then Alcotest.failf "norm %f" norm

let test_cosine_self () =
  let v = Knowledge.Featvec.of_program program_with_noise [] in
  Alcotest.(check (float 1e-6)) "self similarity" 1.0 (Knowledge.Featvec.cosine v v)

let test_cosine_category_dominates () =
  let d1 = Miri.Diag.make Miri.Diag.Alloc "a" in
  let d2 = Miri.Diag.make Miri.Diag.Data_race "b" in
  let same_cat_a = Knowledge.Featvec.of_program program_with_noise [ d1 ] in
  let same_cat_b =
    Knowledge.Featvec.of_program
      (Minirust.Parser.parse "fn main() { unsafe { let mut p = alloc(8, 8); dealloc(p, 8, 8); } }")
      [ d1 ]
  in
  let other_cat = Knowledge.Featvec.of_program program_with_noise [ d2 ] in
  let same = Knowledge.Featvec.cosine same_cat_a same_cat_b in
  let diff = Knowledge.Featvec.cosine same_cat_a other_cat in
  if same <= diff then
    Alcotest.failf "same-category similarity (%f) should beat cross-category (%f)" same diff

(* store *)

let test_store_topk () =
  let store = Knowledge.Store.create () in
  let unit_vec i = Array.init 4 (fun j -> if i = j then 1.0 else 0.0) in
  List.iter (fun i -> Knowledge.Store.add store (unit_vec i) i) [ 0; 1; 2; 3 ];
  let query = [| 0.9; 0.1; 0.0; 0.0 |] in
  match Knowledge.Store.query store query ~k:2 with
  | [ (s1, 0); (s2, 1) ] ->
    Alcotest.(check bool) "ordered by similarity" true (s1 > s2)
  | other -> Alcotest.failf "unexpected top-2: %d entries" (List.length other)

(* kb *)

let test_kb_query_and_cost () =
  let clock = Rb_util.Simclock.create () in
  let kb = Knowledge.Kb.create ~clock () in
  Knowledge.Kb.seed_default kb;
  Alcotest.(check int) "seeded with 12 entries" 12 (Knowledge.Kb.size kb);
  let vec = Knowledge.Featvec.of_program program_with_noise [ Miri.Diag.make Miri.Diag.Alloc "x" ] in
  let before = Rb_util.Simclock.now clock in
  let hits = Knowledge.Kb.query kb vec in
  Alcotest.(check bool) "query costs time" true (Rb_util.Simclock.now clock > before);
  (match hits with
  | (_, e) :: _ -> Alcotest.(check bool) "top hit is alloc advice" true (e.Knowledge.Kb.category = Miri.Diag.Alloc)
  | [] -> Alcotest.fail "expected at least one hit");
  let bias = Knowledge.Kb.kind_bias hits in
  Alcotest.(check bool) "bias non-empty" true (bias <> []);
  Alcotest.(check bool) "hints render" true (String.length (Knowledge.Kb.hints_text hits) > 0)

let test_kb_learning_grows () =
  let clock = Rb_util.Simclock.create () in
  let kb = Knowledge.Kb.create ~clock () in
  let vec = Knowledge.Featvec.of_program program_with_noise [] in
  Knowledge.Kb.learn kb vec
    { Knowledge.Kb.category = Miri.Diag.Alloc; advice = "learned"; recommended = Repairs.Rule.Modify };
  Alcotest.(check int) "size grew" 1 (Knowledge.Kb.size kb)

(* -- correctness sweep: dimensions, ties, bias order -------------------- *)

let test_cosine_mismatch_raises () =
  match Knowledge.Featvec.cosine [| 1.0; 0.0 |] [| 1.0; 0.0; 0.0 |] with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "mismatched dims produced %f instead of raising" s

let test_category_index_total () =
  (* every kind maps to a distinct slot covering 0..n-1: no category can
     alias onto another (the old fallback collapsed unknowns onto slot 0) *)
  let idxs = List.map Knowledge.Featvec.category_index Miri.Diag.all_kinds in
  let n = List.length Miri.Diag.all_kinds in
  Alcotest.(check (list int)) "distinct dense slots" (List.init n Fun.id)
    (List.sort_uniq compare idxs)

let test_store_quarantines_mismatch () =
  let store = Knowledge.Store.create ~dim:4 () in
  Knowledge.Store.add store [| 1.0; 0.0; 0.0 |] "bad";
  Alcotest.(check int) "store unchanged" 0 (Knowledge.Store.size store);
  Alcotest.(check int) "quarantined" 1 (Knowledge.Store.quarantined store);
  Knowledge.Store.add store [| 1.0; 0.0; 0.0; 0.0 |] "good";
  Alcotest.(check int) "good vector accepted" 1 (Knowledge.Store.size store)

let test_store_tie_insertion_order () =
  (* equal scores surface in insertion order — pinned, not accidental *)
  let store = Knowledge.Store.create () in
  let v = [| 0.6; 0.8 |] in
  List.iter (fun i -> Knowledge.Store.add store v i) [ 0; 1; 2 ];
  let found = Knowledge.Store.search store v ~k:3 in
  let ids = List.map (fun (_, id, _) -> id) found in
  Alcotest.(check (list int)) "ties break toward earlier insertion" [ 0; 1; 2 ] ids

let test_kind_bias_canonical_order () =
  let e k = { Knowledge.Kb.category = Miri.Diag.Alloc; advice = "a"; recommended = k } in
  (* hits arrive retrieval-ordered with Modify first; the bias list must
     still come out in fix-kind declaration order with summed weights *)
  let hits =
    [ (0.5, e Repairs.Rule.Modify); (0.25, e Repairs.Rule.Replace);
      (0.25, e Repairs.Rule.Modify) ]
  in
  let bias = Knowledge.Kb.kind_bias hits in
  let name = Repairs.Rule.fix_kind_name in
  Alcotest.(check (list string)) "declaration order, absent kinds dropped"
    [ name Repairs.Rule.Replace; name Repairs.Rule.Modify ]
    (List.map fst bias);
  (match List.assoc_opt (name Repairs.Rule.Modify) bias with
  | Some w -> Alcotest.(check (float 1e-9)) "weights sum over hits" (0.08 *. 0.75) w
  | None -> Alcotest.fail "modify bias missing")

(* -- segment store ------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store_dir f =
  let dir = Filename.temp_file "rb-test-kb" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let read_file p = In_channel.with_open_bin p In_channel.input_all
let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let copy_store src dst =
  Rb_util.Fsfile.mkdir_p dst;
  Array.iter
    (fun n ->
      let s = Filename.concat src n in
      if not (Sys.is_directory s) then write_file (Filename.concat dst n) (read_file s))
    (Sys.readdir src)

let payload i = Rb_util.Json.Obj [ ("i", Rb_util.Json.Num (float_of_int i)) ]

let seg_ids (r : Knowledge.Segment.load_report) =
  List.map (fun (rc : Knowledge.Segment.record) -> rc.Knowledge.Segment.id) r.Knowledge.Segment.records

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let test_segment_roundtrip_bits () =
  with_store_dir (fun dir ->
      (* floats with no short decimal form must survive the JSON round-trip
         bit-for-bit — retrieval scores depend on exact vector bytes *)
      let vecs =
        [ [| 0.1; 1.0 /. 3.0; 4.0 *. atan 1.0; 1e-300 |];
          [| -0.0; 1e300; 0.30000000000000004; 2.2250738585072014e-308 |] ]
      in
      let w, _ = ok (Knowledge.Segment.open_writer ~expect:(4, 1) ~dir ()) in
      List.iteri (fun i v -> ignore (ok (Knowledge.Segment.append w ~vec:v ~payload:(payload i)))) vecs;
      Knowledge.Segment.close w;
      let r = ok (Knowledge.Segment.load ~expect:(4, 1) dir) in
      let loaded = List.map (fun (rc : Knowledge.Segment.record) -> rc.Knowledge.Segment.vec) r.Knowledge.Segment.records in
      Alcotest.(check bool) "vectors bit-identical after reload" true (loaded = vecs))

let test_segment_torn_tail_heals () =
  with_store_dir (fun dir ->
      let w, _ = ok (Knowledge.Segment.open_writer ~expect:(4, 1) ~dir ()) in
      let vec i = [| float_of_int i; 0.5; 0.25; 1.0 |] in
      ignore (ok (Knowledge.Segment.append w ~vec:(vec 0) ~payload:(payload 0)));
      ignore (ok (Knowledge.Segment.append w ~vec:(vec 1) ~payload:(payload 1)));
      let tail = Filename.concat dir "tail.log" in
      let two = (Unix.stat tail).Unix.st_size in
      ignore (ok (Knowledge.Segment.append w ~vec:(vec 2) ~payload:(payload 2)));
      let three = (Unix.stat tail).Unix.st_size in
      (* cut the last frame at every possible byte boundary: each prefix must
         load as exactly the first two records *)
      with_store_dir (fun cut_dir ->
          for cut = 1 to three - two do
            rm_rf cut_dir;
            copy_store dir cut_dir;
            Unix.truncate (Filename.concat cut_dir "tail.log") (three - cut);
            let r = ok (Knowledge.Segment.load ~expect:(4, 1) cut_dir) in
            if seg_ids r <> [ 0; 1 ] then
              Alcotest.failf "cut of %d byte(s): survivors %s" cut
                (String.concat "," (List.map string_of_int (seg_ids r)));
            if cut < three - two && r.Knowledge.Segment.healed_tail_bytes <= 0 then
              Alcotest.failf "cut of %d byte(s): no healed bytes reported" cut
          done);
      Knowledge.Segment.close w)

let test_segment_append_quarantines_dim () =
  with_store_dir (fun dir ->
      let w, _ = ok (Knowledge.Segment.open_writer ~expect:(4, 1) ~dir ()) in
      ignore (ok (Knowledge.Segment.append w ~vec:[| 1.0; 0.0; 0.0; 0.0 |] ~payload:(payload 0)));
      (match Knowledge.Segment.append w ~vec:[| 1.0; 0.0 |] ~payload:(payload 1) with
      | Ok _ -> Alcotest.fail "mismatched vector was accepted"
      | Error _ -> ());
      Alcotest.(check int) "store unchanged" 1 (List.length (Knowledge.Segment.records w));
      let qfile = Filename.concat (Filename.concat dir "quarantined") "records.jsonl" in
      Alcotest.(check bool) "quarantine preserves the bytes" true
        (Sys.file_exists qfile && String.length (read_file qfile) > 0);
      Knowledge.Segment.close w)

let test_segment_corrupt_segment_quarantined () =
  with_store_dir (fun dir ->
      let w, _ =
        ok (Knowledge.Segment.open_writer ~expect:(4, 1) ~seal_every:2 ~dir ())
      in
      for i = 0 to 3 do
        ignore (ok (Knowledge.Segment.append w ~vec:[| float_of_int i; 0.0; 0.0; 1.0 |] ~payload:(payload i)))
      done;
      Knowledge.Segment.close w;
      let seg =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".seg")
        |> List.sort compare |> List.hd
      in
      let path = Filename.concat dir seg in
      let bytes = Bytes.of_string (read_file path) in
      Bytes.set bytes (Bytes.length bytes / 2) '#';
      write_file path (Bytes.to_string bytes);
      let r = ok (Knowledge.Segment.load ~expect:(4, 1) dir) in
      Alcotest.(check int) "one segment is corrupt" 1 r.Knowledge.Segment.corrupt_segments;
      Alcotest.(check (list int)) "the other segment's records survive" [ 2; 3 ] (seg_ids r);
      let fixed = ok (Knowledge.Segment.fsck ~fix:true ~expect:(4, 1) dir) in
      Alcotest.(check (list int)) "fsck keeps the survivors" [ 2; 3 ] (seg_ids fixed);
      let again = ok (Knowledge.Segment.load ~expect:(4, 1) dir) in
      Alcotest.(check int) "after fsck the store is clean" 0 again.Knowledge.Segment.corrupt_segments;
      Alcotest.(check bool) "corrupt bytes preserved in quarantine" true
        (Sys.file_exists (Filename.concat (Filename.concat dir "quarantined") "corrupt")))

let test_segment_duplicate_ids_first_wins () =
  with_store_dir (fun dir ->
      (* the compaction-crash window: merged segment written, an input not
         yet deleted — the same ids appear twice and dedupe keeps the first *)
      let w, _ =
        ok (Knowledge.Segment.open_writer ~expect:(4, 1) ~seal_every:2 ~dir ())
      in
      for i = 0 to 3 do
        ignore (ok (Knowledge.Segment.append w ~vec:[| float_of_int i; 0.0; 0.0; 1.0 |] ~payload:(payload i)))
      done;
      let before = Knowledge.Segment.records w in
      Knowledge.Segment.close w;
      let seg =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".seg")
        |> List.sort compare |> List.hd
      in
      write_file (Filename.concat dir "seg-00009999.seg") (read_file (Filename.concat dir seg));
      let r = ok (Knowledge.Segment.load ~expect:(4, 1) dir) in
      Alcotest.(check bool) "first record wins, set unchanged" true
        (r.Knowledge.Segment.records = before);
      Alcotest.(check bool) "duplicates counted" true (r.Knowledge.Segment.duplicates > 0))

let test_segment_compaction_equivalent () =
  with_store_dir (fun dir ->
      let w, _ =
        ok (Knowledge.Segment.open_writer ~expect:(4, 1) ~seal_every:3 ~compact_at:100 ~dir ())
      in
      for i = 0 to 16 do
        ignore (ok (Knowledge.Segment.append w ~vec:[| float_of_int i; 0.1; 0.2; 1.0 |] ~payload:(payload i)))
      done;
      let before = Knowledge.Segment.records w in
      Knowledge.Segment.compact w;
      Knowledge.Segment.close w;
      let r = ok (Knowledge.Segment.load ~expect:(4, 1) dir) in
      Alcotest.(check bool) "load-equivalent after compaction" true
        (r.Knowledge.Segment.records = before);
      Alcotest.(check int) "a single merged segment remains" 1 r.Knowledge.Segment.segments)

let test_kb_snapshot_frozen_in_process () =
  with_store_dir (fun dir ->
      let clock = Rb_util.Simclock.create () in
      let kb = ok (Knowledge.Kb.open_dir ~dir ~clock ()) in
      let seeds = Knowledge.Kb.size kb in
      Alcotest.(check bool) "persistent store self-seeds" true (seeds > 0);
      let vec = Knowledge.Featvec.of_program program_with_noise [] in
      Knowledge.Kb.learn kb vec
        { Knowledge.Kb.category = Miri.Diag.Alloc; advice = "learned"; recommended = Repairs.Rule.Modify };
      Alcotest.(check int) "snapshot frozen: learn goes to disk only" seeds
        (Knowledge.Kb.size kb);
      let again = ok (Knowledge.Kb.open_dir ~dir ~clock ()) in
      Alcotest.(check int) "same-process reopen sees the frozen snapshot" seeds
        (Knowledge.Kb.size again);
      let on_disk = ok (Knowledge.Segment.load dir) in
      Alcotest.(check int) "the learned entry is durable for the next process"
        (seeds + 1)
        (List.length on_disk.Knowledge.Segment.records);
      (* a read-only handle drops learns entirely *)
      let ro = ok (Knowledge.Kb.open_dir ~readonly:true ~dir ~clock ()) in
      Knowledge.Kb.learn ro vec
        { Knowledge.Kb.category = Miri.Diag.Alloc; advice = "dropped"; recommended = Repairs.Rule.Modify };
      let after = ok (Knowledge.Segment.load dir) in
      Alcotest.(check int) "read-only learn leaves the disk untouched"
        (seeds + 1)
        (List.length after.Knowledge.Segment.records))

(* -- retrieval: brute-force oracle, parallel == sequential -------------- *)

(* components from a few values, zero the likeliest, so that equal scores
   and zero vectors (score 0 against everything) are common *)
let gen_vec dim =
  QCheck.Gen.(
    array_size (return dim)
      (frequencyl [ (3, 0.0); (1, -1.0); (1, 0.5); (1, 1.0); (1, 2.0) ]))

(* Store.search against the definition: every entry scored by
   Featvec.cosine, sorted by (score descending, id ascending), the first
   [k] kept — bit-equal scores, same ids, same payloads *)
let prop_search_matches_oracle =
  let dim = 4 in
  QCheck.Test.make ~name:"store: search = brute-force cosine ranking" ~count:500
    QCheck.(
      make
        ~print:Print.(triple (list (array float)) (array float) int)
        Gen.(triple (list_size (0 -- 30) (gen_vec dim)) (gen_vec dim) (0 -- 35)))
    (fun (vecs, q, k) ->
      let store = Knowledge.Store.create ~dim () in
      List.iteri (fun i v -> Knowledge.Store.add store v (Printf.sprintf "p%d" i)) vecs;
      let oracle =
        List.mapi (fun i v -> (Knowledge.Featvec.cosine q v, i, Printf.sprintf "p%d" i)) vecs
        |> List.stable_sort (fun (s1, i1, _) (s2, i2, _) ->
               match Float.compare s2 s1 with 0 -> compare i1 i2 | c -> c)
        |> List.filteri (fun j _ -> j < k)
      in
      let bits = List.map (fun (s, i, p) -> (Int64.bits_of_float s, i, p)) in
      bits (Knowledge.Store.search store q ~k) = bits oracle)

let test_store_shared_across_domains () =
  (* one store serving several sessions keeps no per-query state: two
     domains querying it at once see exactly what one domain sees querying
     alone *)
  let dim = 12 and ncat = 4 and n = 2_000 in
  let rng = Rb_util.Rng.create 0x5ea in
  let synth cat =
    let v = Array.make dim 0.0 in
    for _ = 1 to 3 do
      v.(Rb_util.Rng.int rng (dim - ncat)) <- Rb_util.Rng.float rng
    done;
    v.(dim - ncat + cat) <- 2.0;
    v
  in
  let store = Knowledge.Store.create ~dim () in
  for i = 0 to n - 1 do
    Knowledge.Store.add store (synth (i mod ncat)) i
  done;
  let queries = List.init 60 (fun i -> synth (i mod ncat)) in
  let run qs = List.map (fun q -> Knowledge.Store.search store q ~k:8) qs in
  let alone = run queries and alone_rev = run (List.rev queries) in
  let d1 = Domain.spawn (fun () -> run queries) in
  let d2 = Domain.spawn (fun () -> run (List.rev queries)) in
  let together = Domain.join d1 and together_rev = Domain.join d2 in
  Alcotest.(check bool) "domain 1 agrees with a lone run" true (together = alone);
  Alcotest.(check bool) "domain 2 agrees with a lone run" true (together_rev = alone_rev)

(* The simulated charge of a query is a function of the store's size that
   never falls as the store grows — here across 10^5 rows, where a
   retrieval index once made the charge drop. *)
let test_kb_charge_monotone () =
  let clock = Rb_util.Simclock.create () in
  let kb = Knowledge.Kb.create ~clock () in
  let rows =
    Array.of_list
      (List.map
         (fun category ->
           ( Knowledge.Featvec.of_program program_with_noise [ Miri.Diag.make category "x" ],
             { Knowledge.Kb.category; advice = "learned"; recommended = Repairs.Rule.Modify } ))
         Miri.Diag.all_kinds)
  in
  let learn i =
    let vec, entry = rows.(i mod Array.length rows) in
    Knowledge.Kb.learn kb vec entry
  in
  let charge () =
    snd (Rb_util.Simclock.elapsed_during clock (fun () -> Knowledge.Kb.query kb (fst rows.(0))))
  in
  for i = 0 to 99_998 do
    learn i
  done;
  let c1 = charge () in
  learn 99_999;
  let c2 = charge () in
  Alcotest.(check int) "rows" 100_000 (Knowledge.Kb.size kb);
  if c2 < c1 then
    Alcotest.failf "a query on 100000 rows charged %.2f s, less than %.2f s on 99999" c2 c1

let suite =
  [ Alcotest.test_case "prune keeps unsafe" `Quick test_prune_keeps_unsafe;
    Alcotest.test_case "prune drops noise" `Quick test_prune_drops_counted;
    Alcotest.test_case "prune keeps hinted" `Quick test_prune_keeps_hinted;
    Alcotest.test_case "prune keeps dependencies" `Quick test_prune_keeps_dependencies;
    Alcotest.test_case "vector normalized" `Quick test_vector_normalized;
    Alcotest.test_case "cosine self" `Quick test_cosine_self;
    Alcotest.test_case "category dominates similarity" `Quick test_cosine_category_dominates;
    Alcotest.test_case "store top-k" `Quick test_store_topk;
    Alcotest.test_case "kb query and cost" `Quick test_kb_query_and_cost;
    Alcotest.test_case "kb learning grows" `Quick test_kb_learning_grows;
    Alcotest.test_case "cosine mismatch raises" `Quick test_cosine_mismatch_raises;
    Alcotest.test_case "category index total and distinct" `Quick test_category_index_total;
    Alcotest.test_case "store quarantines dim mismatch" `Quick test_store_quarantines_mismatch;
    Alcotest.test_case "store ties break on insertion order" `Quick test_store_tie_insertion_order;
    Alcotest.test_case "kind bias canonical order" `Quick test_kind_bias_canonical_order;
    Alcotest.test_case "segment round-trips float bits" `Quick test_segment_roundtrip_bits;
    Alcotest.test_case "segment heals torn tail at every cut" `Quick test_segment_torn_tail_heals;
    Alcotest.test_case "segment quarantines mismatched append" `Quick test_segment_append_quarantines_dim;
    Alcotest.test_case "segment quarantines corrupt segment" `Quick test_segment_corrupt_segment_quarantined;
    Alcotest.test_case "segment duplicate ids first-wins" `Quick test_segment_duplicate_ids_first_wins;
    Alcotest.test_case "segment compaction load-equivalent" `Quick test_segment_compaction_equivalent;
    Alcotest.test_case "kb snapshot frozen in-process" `Quick test_kb_snapshot_frozen_in_process;
    QCheck_alcotest.to_alcotest prop_search_matches_oracle;
    Alcotest.test_case "store shared by domains keeps no query state" `Quick
      test_store_shared_across_domains;
    Alcotest.test_case "kb charge never falls as the store grows" `Quick
      test_kb_charge_monotone ]
