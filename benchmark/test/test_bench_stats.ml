open Bench_stats

let close = Alcotest.float 1e-9
let range a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

(* -- nearest-rank percentiles ----------------------------------------------- *)

let test_rank () =
  (* the textbook nearest-rank example: 15 20 35 40 50 *)
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  let at p = xs.(rank ~p 5 - 1) in
  Alcotest.check close "p5" 15. (at 5.);
  Alcotest.check close "p30" 20. (at 30.);
  Alcotest.check close "p40" 20. (at 40.);
  Alcotest.check close "p50" 35. (at 50.);
  Alcotest.check close "p100" 50. (at 100.);
  (* exact products must not round a rank up *)
  Alcotest.(check int) "rank p99 of 1000" 990 (rank ~p:99. 1000);
  Alcotest.(check int) "rank p90 of 100" 90 (rank ~p:90. 100)

let test_percentile_values () =
  let xs = List.rev (range 1 1000) in
  Alcotest.(check (result close string)) "p50 of 1..1000" (Ok 500.) (percentile ~p:50. xs);
  Alcotest.(check (result close string)) "p99 of 1..1000" (Ok 990.) (percentile ~p:99. xs);
  Alcotest.(check (result close string)) "p90 of 1..100" (Ok 90.) (percentile ~p:90. (range 1 100))

(* -- the ten-beyond rule -------------------------------------------------------- *)

let ok_or_error r = match r with Ok _ -> "ok" | Error _ -> "error"

let test_ten_beyond () =
  let check name want p n =
    Alcotest.(check string) name want (ok_or_error (percentile ~p (range 1 n)))
  in
  check "p99 needs 1000 samples" "error" 99. 999;
  check "p99 of 1000" "ok" 99. 1000;
  check "p99 of 600 is refused" "error" 99. 600;
  check "p90 needs 100 samples" "error" 90. 99;
  check "p90 of 100" "ok" 90. 100;
  check "p80 needs 50 samples" "error" 80. 49;
  check "p80 of 50" "ok" 80. 50;
  check "p50 needs 20 samples" "error" 50. 19;
  check "p50 of 20" "ok" 50. 20;
  check "empty" "error" 50. 0;
  Alcotest.(check int) "beyond p99 of 1000" 10 (beyond ~p:99. 1000)

let test_tail () =
  let t n = tail (range 1 n) in
  Alcotest.(check (option (pair close close))) "1000 samples: p99" (Some (99., 990.)) (t 1000);
  Alcotest.(check (option (pair close close))) "50 samples: p80" (Some (80., 40.)) (t 50);
  Alcotest.(check (option (pair close close))) "5 samples: the max" (Some (100., 5.)) (t 5);
  Alcotest.(check (option (pair close close))) "empty" None (tail [])

(* -- quartiles as Python's statistics.quantiles(n=4) ------------------------------- *)

let test_quartiles () =
  let q1, q2, q3 = quartiles (range 1 10) in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  let q1, _, q3 = quartiles [ 1.; 2. ] in
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  Alcotest.check close "two samples q1" 0.75 q1;
  Alcotest.check close "two samples q3" 2.25 q3;
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5) (spread (range 1 10))

(* -- open-loop timing ------------------------------------------------------------ *)

let test_open_loop_from_due () =
  (* due at 1.0, the generator stalled and sent at 1.3, done at 1.35 *)
  Alcotest.check close "latency counts the stall" 0.35 (open_loop_latency ~due:1.0 ~done_at:1.35);
  Alcotest.check close "lateness" 0.3 (lateness ~due:1.0 ~sent:1.3);
  let j =
    { due = Some 1.0; sent = 1.3; admitted = 1.31; dispatched = 1.32; cases = [ 1.34 ];
      done_at = 1.35 }
  in
  Alcotest.check close "job latency from due, not send" 0.35 (latency j);
  Alcotest.check close "late stage" 0.3 (stages j).late;
  let closed = { j with due = None } in
  Alcotest.check close "closed loop from send" 0.05 (latency closed);
  Alcotest.check close "closed loop is never late" 0.0 (stages closed).late

(* -- serve layer spans telescope ---------------------------------------------------- *)

let test_telescoping () =
  let j =
    { due = Some 10.0; sent = 10.002; admitted = 10.006; dispatched = 10.010;
      cases = [ 10.030; 10.041; 10.049 ]; done_at = 10.052 }
  in
  let s = stages j in
  Alcotest.check close "admit" 0.004 s.admit;
  Alcotest.check close "queue wait" 0.004 s.queue_wait;
  Alcotest.check close "start" 0.020 s.start;
  Alcotest.(check (list close)) "case gaps" [ 0.011; 0.008 ] s.case_gaps;
  Alcotest.check close "finish" 0.003 s.finish;
  Alcotest.check close "stages add up to the latency" (latency j) (stages_total s);
  let one = { j with cases = [ 10.030 ]; due = None } in
  Alcotest.(check (list close)) "a 1-case job has no gaps" [] (stages one).case_gaps;
  Alcotest.check close "1-case job telescopes" (latency one) (stages_total (stages one));
  let none = { j with cases = [] } in
  Alcotest.check close "no CASE frames: finish from dispatch" (latency none)
    (stages_total (stages none))

(* -- comparing run sets ------------------------------------------------------------ *)

let test_verdict () =
  let around m = List.map (fun d -> m +. d) [ -0.5; -0.3; -0.1; 0.0; 0.1; 0.3; 0.5 ] in
  let name dir ~bound a b = verdict_name (verdict dir ~bound ~parent:a ~change:b) in
  Alcotest.(check string) "same" "agree" (name Lower ~bound:0.1 (around 100.) (around 100.));
  Alcotest.(check string) "20% slower" "worse" (name Lower ~bound:0.1 (around 100.) (around 120.));
  Alcotest.(check string) "20% less throughput" "worse"
    (name Higher ~bound:0.1 (around 100.) (around 80.));
  Alcotest.(check string) "better is fine" "agree" (name Lower ~bound:0.1 (around 100.) (around 50.));
  let wide = [ 50.; 80.; 100.; 120.; 150. ] in
  Alcotest.(check string) "spread wider than the bound" "unresolved"
    (name Lower ~bound:0.1 wide (around 100.));
  Alcotest.(check string) "unless every change run is better" "agree"
    (name Lower ~bound:0.1 wide [ 10.; 11.; 12. ])

let test_pair_rule () =
  let parent = List.init 10 (fun i -> 100. +. float_of_int (i mod 3)) in
  let faster = List.map (fun x -> x -. 20.) parent in
  Alcotest.(check bool) "clear gain" true (pair_gain Lower ~parent ~change:faster);
  Alcotest.(check bool) "fewer than ten pairs" false
    (pair_gain Lower ~parent:(List.tl parent) ~change:(List.tl faster));
  let mixed = List.mapi (fun i x -> if i < 2 then x +. 1. else x -. 20.) parent in
  Alcotest.(check bool) "8 of 10 wins is not enough" false (pair_gain Lower ~parent ~change:mixed);
  let tiny = List.map (fun x -> x -. 0.5) parent in
  Alcotest.(check bool) "gap within the parent's spread" false (pair_gain Lower ~parent ~change:tiny)

let () =
  Alcotest.run "bench_stats"
    [ ( "percentiles",
        [ Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "values" `Quick test_percentile_values;
          Alcotest.test_case "ten beyond" `Quick test_ten_beyond;
          Alcotest.test_case "tail" `Quick test_tail;
          Alcotest.test_case "quartiles" `Quick test_quartiles ] );
      ( "serve timing",
        [ Alcotest.test_case "open loop from due" `Quick test_open_loop_from_due;
          Alcotest.test_case "telescoping" `Quick test_telescoping ] );
      ( "compare",
        [ Alcotest.test_case "verdict" `Quick test_verdict;
          Alcotest.test_case "pair rule" `Quick test_pair_rule ] ) ]
