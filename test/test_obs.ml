(* The observability layer: trace sinks and gating, JSONL round trips,
   metric instruments and cross-registry merging — plus the bugfix sweep
   riding on the same PR (RFC-4180 CSV quoting, atomic-write tmp cleanup,
   scheduler domain-count cap). *)

module Trace = Obs.Trace
module Metrics = Obs.Metrics

(* -- trace sinks -------------------------------------------------------- *)

let test_memory_order () =
  let sink, records = Trace.memory () in
  Trace.event sink "a";
  Trace.event sink ~attrs:[ ("k", Trace.I 1) ] "b";
  Trace.event sink "c";
  Alcotest.(check (list string))
    "emission order" [ "a"; "b"; "c" ]
    (List.map (fun r -> r.Trace.name) (records ()))

let test_span_clock_and_post () =
  let sink, records = Trace.memory () in
  let now = ref 10.0 in
  Trace.set_time_source sink (fun () -> !now);
  let v =
    Trace.span sink "work"
      ~attrs:(fun () -> [ ("case", Trace.S "c1") ])
      ~post:(fun v -> [ ("result", Trace.I v) ])
      (fun () ->
        now := 12.5;
        42)
  in
  Alcotest.(check int) "span returns f's value" 42 v;
  match records () with
  | [ r ] ->
    Alcotest.(check string) "name" "work" r.Trace.name;
    Alcotest.(check (float 1e-9)) "start" 10.0 r.Trace.t;
    Alcotest.(check (float 1e-9)) "sim duration" 2.5 r.Trace.dur;
    Alcotest.(check bool) "attrs + post merged" true
      (r.Trace.attrs
      = [ ("case", Trace.S "c1"); ("result", Trace.I 42) ])
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let test_span_raised () =
  let sink, records = Trace.memory () in
  (match Trace.span sink "boom" (fun () -> failwith "no") with
  | _ -> Alcotest.fail "span swallowed the exception"
  | exception Failure m -> Alcotest.(check string) "rethrown" "no" m);
  match records () with
  | [ r ] ->
    Alcotest.(check bool) "raised attr" true
      (List.mem ("raised", Trace.B true) r.Trace.attrs)
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let test_gating_off () =
  (* with no ambient sink the attribute closures must never run *)
  let forced = ref false in
  let v =
    Trace.in_span "quiet"
      ~attrs:(fun () ->
        forced := true;
        [])
      (fun () -> 7)
  in
  Trace.note "quiet-note" (fun () ->
      forced := true;
      []);
  Alcotest.(check int) "in_span passes through" 7 v;
  Alcotest.(check bool) "closures not forced" false !forced

let test_ambient_scoping () =
  let sink, records = Trace.memory () in
  Alcotest.(check bool) "no ambient outside" true (Trace.ambient () = None);
  Trace.with_ambient sink (fun () ->
      Trace.note "inside" (fun () -> []);
      Trace.without_ambient (fun () -> Trace.note "hidden" (fun () -> []));
      Trace.note "inside-again" (fun () -> []));
  (match Trace.with_ambient sink (fun () -> failwith "x") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "ambient restored after raise" true
    (Trace.ambient () = None);
  Alcotest.(check (list string))
    "without_ambient invisible" [ "inside"; "inside-again" ]
    (List.map (fun r -> r.Trace.name) (records ()))

let test_tee () =
  let a, ra = Trace.memory () in
  let b, rb = Trace.memory () in
  let t = Trace.tee a b in
  Trace.event t "x";
  Alcotest.(check int) "left got it" 1 (List.length (ra ()));
  Alcotest.(check int) "right got it" 1 (List.length (rb ()))

(* -- JSONL -------------------------------------------------------------- *)

let index_of haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then None
    else if String.sub haystack i n = needle then Some i
    else go (i + 1)
  in
  go 0

let test_jsonl_roundtrip () =
  let r =
    { Trace.kind = Trace.Span;
      name = "phase \"x\"\n";
      t = 1.25;
      dur = 0.5;
      wall_ms = 0.;
      attrs =
        [ ("i", Trace.I 3); ("f", Trace.F 0.25); ("s", Trace.S "a,b");
          ("b", Trace.B true) ] }
  in
  let line = Trace.to_jsonl r in
  (match Trace.of_jsonl line with
  | Error e -> Alcotest.failf "of_jsonl failed: %s" e
  | Ok r' ->
    Alcotest.(check string) "reprint identical" line (Trace.to_jsonl r'));
  let ev = { r with kind = Trace.Event; dur = 0.; attrs = [] } in
  Alcotest.(check bool) "events omit dur" true
    (index_of (Trace.to_jsonl ev) {|"dur"|} = None);
  let wall = Trace.to_jsonl ~wall:true { r with wall_ms = 3.125 } in
  match Trace.of_jsonl wall with
  | Error e -> Alcotest.failf "wall round trip failed: %s" e
  | Ok r' -> Alcotest.(check (float 1e-9)) "wall_ms kept" 3.125 r'.Trace.wall_ms

let test_jsonl_errors () =
  List.iter
    (fun line ->
      match Trace.of_jsonl line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [ "not json"; "{}"; {|{"k":"span","name":"x"}|}; {|{"k":"nope","name":"x","t":0}|} ]

let with_dir f =
  let dir = Filename.temp_file "rustbrain-test-obs" "" in
  Sys.remove dir;
  Rb_util.Fsfile.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let test_file_sink () =
  with_dir (fun dir ->
      let path = Filename.concat dir "trace.jsonl" in
      let sink = Trace.file path in
      Trace.event sink "a";
      Trace.event sink "b";
      Alcotest.(check bool) "nothing before close" false (Sys.file_exists path);
      Trace.close sink;
      Trace.close sink (* idempotent *);
      match Rb_util.Fsfile.read path with
      | None -> Alcotest.fail "file sink wrote nothing"
      | Some contents ->
        let lines =
          String.split_on_char '\n' contents |> List.filter (fun l -> l <> "")
        in
        Alcotest.(check int) "two lines" 2 (List.length lines);
        List.iter
          (fun l ->
            match Trace.of_jsonl l with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "unparseable line %S: %s" l e)
          lines)

(* -- metrics ------------------------------------------------------------ *)

let test_counter () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "llm.calls" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "accumulates" 5 (Metrics.counter_value c);
  Alcotest.(check int) "find-or-create shares the cell" 5
    (Metrics.counter_value (Metrics.counter reg "llm.calls"))

let test_gauge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 1e-9)) "holds last value" 3.5 (Metrics.gauge_value g)

let test_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] reg "secs" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 100.0 ];
  Alcotest.(check int) "count" 3 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 105.5 (Metrics.histogram_sum h)

let test_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:2 (Metrics.counter a "c");
  Metrics.incr ~by:3 (Metrics.counter b "c");
  Metrics.incr ~by:7 (Metrics.counter b "only-b");
  Metrics.set (Metrics.gauge a "g") 1.0;
  Metrics.set (Metrics.gauge b "g") 5.0;
  Metrics.observe (Metrics.histogram a "h") 0.5;
  Metrics.observe (Metrics.histogram b "h") 20.0;
  Metrics.merge_into ~into:a b;
  Alcotest.(check int) "counters add" 5 (Metrics.counter_value (Metrics.counter a "c"));
  Alcotest.(check int) "absent counter copied" 7
    (Metrics.counter_value (Metrics.counter a "only-b"));
  Alcotest.(check (float 1e-9)) "gauges keep max" 5.0
    (Metrics.gauge_value (Metrics.gauge a "g"));
  Alcotest.(check int) "histograms add" 2
    (Metrics.histogram_count (Metrics.histogram a "h"));
  Alcotest.(check (float 1e-9)) "histogram sums add" 20.5
    (Metrics.histogram_sum (Metrics.histogram a "h"))

let test_metrics_json_sorted () =
  let reg = Metrics.create () in
  List.iter (fun n -> Metrics.incr (Metrics.counter reg n)) [ "z"; "a"; "m" ];
  let rendered = Rb_util.Json.to_string (Metrics.to_json reg) in
  (* names are emitted sorted regardless of insertion order *)
  let pos n =
    match index_of rendered ("\"" ^ n ^ "\"") with
    | Some i -> i
    | None -> Alcotest.failf "missing %s in %s" n rendered
  in
  Alcotest.(check bool) "sorted names" true (pos "a" < pos "m" && pos "m" < pos "z")

let test_ambient_registry () =
  let reg = Metrics.create () in
  Metrics.with_registry reg (fun () ->
      Metrics.inc "hits";
      Metrics.inc ~by:2 "hits";
      Metrics.set_gauge "level" 4.0;
      Metrics.observe_s "secs" 0.5);
  Metrics.inc "hits" (* lands in the (discarded) outer ambient registry *);
  Alcotest.(check int) "scoped counts" 3 (Metrics.counter_value (Metrics.counter reg "hits"));
  Alcotest.(check (float 1e-9)) "scoped gauge" 4.0
    (Metrics.gauge_value (Metrics.gauge reg "level"));
  Alcotest.(check int) "scoped histogram" 1
    (Metrics.histogram_count (Metrics.histogram reg "secs"))

(* -- satellite: RFC-4180 CSV quoting + column-count invariant ----------- *)

(* a small conforming RFC-4180 field splitter: the test must not reuse the
   code under test *)
let csv_fields line =
  let n = String.length line in
  let fields = ref [] and buf = Buffer.create 32 in
  let rec plain i =
    if i >= n then fields := Buffer.contents buf :: !fields
    else
      match line.[i] with
      | ',' ->
        fields := Buffer.contents buf :: !fields;
        Buffer.clear buf;
        plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then Alcotest.fail "unterminated quoted field"
    else
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  List.rev !fields

let mk_report name =
  { Rustbrain.Report.case_name = name;
    category = Miri.Diag.Validity;
    passed = true;
    semantic = false;
    seconds = 1.5;
    llm_calls = 2;
    tokens = 100;
    iterations = 1;
    solutions_tried = 1;
    rollbacks = 0;
    n_sequence = [ 1; 0 ];
    winning_solution = Some "s1";
    feedback_hit = false;
    retries = 0;
    faults = 0;
    breaker_trips = 0;
    degraded = false;
    gave_up = false;
    trace = [] }

let test_csv_quoting () =
  let module R = Rustbrain.Report in
  List.iter
    (fun nasty ->
      let row = R.csv_row (mk_report nasty) in
      Alcotest.(check bool)
        (Printf.sprintf "row for %S is one line" nasty)
        false
        (String.contains row '\n' &&
         (* a bare newline may only appear inside a quoted field *)
         csv_fields row = []);
      match csv_fields row with
      | first :: _ ->
        Alcotest.(check string)
          (Printf.sprintf "field %S round trips" nasty)
          nasty first
      | [] -> Alcotest.fail "empty row")
    [ "plain"; "with,comma"; "with\"quote"; "with\rreturn"; "a\r\nb"; "" ]

let test_csv_column_invariant () =
  let module R = Rustbrain.Report in
  let header_cols = List.length (csv_fields R.csv_header) in
  List.iter
    (fun name ->
      let cols = List.length (csv_fields (R.csv_row (mk_report name))) in
      Alcotest.(check int)
        (Printf.sprintf "column count for %S" name)
        header_cols cols)
    [ "plain"; "a,b,c"; "x\ry"; "q\"q"; "nl\nnl" ]

(* -- satellite: write_channel cleans up its temp file on failure -------- *)

let entries dir = Sys.readdir dir |> Array.to_list |> List.sort compare

let test_write_channel_cleanup () =
  with_dir (fun dir ->
      let path = Filename.concat dir "out.json" in
      Rb_util.Fsfile.write_atomic path "old";
      let before = entries dir in
      (match
         Rb_util.Fsfile.write_channel path (fun oc ->
             output_string oc "partial";
             failwith "emit blew up")
       with
      | () -> Alcotest.fail "write_channel swallowed the exception"
      | exception Failure m -> Alcotest.(check string) "propagated" "emit blew up" m);
      Alcotest.(check (list string)) "no tmp leak after emit failure" before (entries dir);
      Alcotest.(check (option string)) "target untouched" (Some "old")
        (Rb_util.Fsfile.read path);
      (* emit closing the channel itself makes the helper's own flush fail:
         the tmp file must still be removed and the error surfaced *)
      (match
         Rb_util.Fsfile.write_channel path (fun oc ->
             output_string oc "x";
             close_out oc)
       with
      | () -> Alcotest.fail "expected the flush-after-close failure"
      | exception Sys_error _ -> ());
      Alcotest.(check (list string)) "no tmp leak after flush failure" before (entries dir))

(* -- satellite: scheduler domain-count cap ------------------------------ *)

let test_default_domains_cap () =
  Alcotest.(check bool) "cap constant" true (Exec.Scheduler.default_domain_cap = 8);
  let d = Exec.Scheduler.default_domains () in
  Alcotest.(check bool) "default within [1, cap]" true
    (d >= 1 && d <= Exec.Scheduler.default_domain_cap);
  Alcotest.(check bool) "explicit cap honored" true
    (Exec.Scheduler.default_domains ~cap:2 () <= 2);
  Alcotest.(check int) "cap floors at one domain" 1
    (Exec.Scheduler.default_domains ~cap:1 ())

let suite =
  [ Alcotest.test_case "trace: memory sink order" `Quick test_memory_order;
    Alcotest.test_case "trace: span clock + post attrs" `Quick test_span_clock_and_post;
    Alcotest.test_case "trace: span on raise" `Quick test_span_raised;
    Alcotest.test_case "trace: gating off runs nothing" `Quick test_gating_off;
    Alcotest.test_case "trace: ambient scoping" `Quick test_ambient_scoping;
    Alcotest.test_case "trace: tee" `Quick test_tee;
    Alcotest.test_case "trace: jsonl round trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "trace: jsonl rejects garbage" `Quick test_jsonl_errors;
    Alcotest.test_case "trace: file sink" `Quick test_file_sink;
    Alcotest.test_case "metrics: counter" `Quick test_counter;
    Alcotest.test_case "metrics: gauge" `Quick test_gauge;
    Alcotest.test_case "metrics: histogram" `Quick test_histogram;
    Alcotest.test_case "metrics: merge" `Quick test_merge;
    Alcotest.test_case "metrics: json sorted" `Quick test_metrics_json_sorted;
    Alcotest.test_case "metrics: ambient registry" `Quick test_ambient_registry;
    Alcotest.test_case "csv: RFC-4180 quoting" `Quick test_csv_quoting;
    Alcotest.test_case "csv: column-count invariant" `Quick test_csv_column_invariant;
    Alcotest.test_case "fsfile: write_channel cleanup" `Quick test_write_channel_cleanup;
    Alcotest.test_case "scheduler: default_domains cap" `Quick test_default_domains_cap ]
