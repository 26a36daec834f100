(* Order statistics for the benchmark harness. Pure: no clock, no I/O, so
   every rule here is unit-tested in benchmark/test. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Bench_stats.median: empty sample"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank: the smallest sample with at least p% of the sample at or
   below it, i.e. rank ceil(p/100 * n), 1-based. The epsilon keeps exact
   products such as 99% of 1000 from rounding up a rank. *)
let rank ~p n =
  let r = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)) in
  max 1 (min n r)

let beyond ~p n = n - rank ~p n

let min_beyond = 10

let percentile ~p xs =
  match sorted xs with
  | [||] -> Error (Printf.sprintf "p%g of an empty sample" p)
  | a ->
    let n = Array.length a in
    if beyond ~p n < min_beyond then
      Error
        (Printf.sprintf
           "p%g of %d samples has only %d beyond it (need %d, i.e. n >= %d)"
           p n (beyond ~p n) min_beyond
           (int_of_float (Float.ceil (float_of_int min_beyond *. 100.0 /. (100.0 -. p)))))
    else Ok a.(rank ~p n - 1)

(* The highest percentile, at most p99, with at least [min_beyond] samples
   beyond it; with fewer than [min_beyond + 1] samples none exists and the
   maximum stands in. Returns (percentile, value). *)
let tail xs =
  match sorted xs with
  | [||] -> None
  | a ->
    let n = Array.length a in
    let r = if n > min_beyond then min (rank ~p:99.0 n) (n - min_beyond) else n in
    Some (100.0 *. float_of_int r /. float_of_int n, a.(r - 1))

(* Python's statistics.quantiles(xs, n=4) with its default 'exclusive'
   method, so the spread this harness reports is the one an external
   checker computing quartiles that way sees. *)
let quartiles xs =
  match sorted xs with
  | [||] -> invalid_arg "Bench_stats.quartiles: empty sample"
  | [| x |] -> (x, x, x)
  | a ->
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs m

(* -- open-loop timing ----------------------------------------------------- *)

(* An open-loop job is timed from when it was due, not from when the
   generator got round to sending it: a stall then shows up in every job
   it delayed instead of vanishing into the send time. *)
let open_loop_latency ~due ~done_at = done_at -. due
let lateness ~due ~sent = sent -. due

(* -- serve layer spans ------------------------------------------------------ *)

(* One served job as the harness saw it: its own frame timestamps plus the
   server's trace events, all on the same wall clock (seconds). [due] is
   the schedule slot of an open-loop job, [None] in a closed loop. *)
type job_clock = {
  due : float option;
  sent : float;          (* SUBMIT written *)
  admitted : float;      (* server "serve-admit": durable admission done *)
  dispatched : float;    (* server "serve-dispatch": handed to a worker *)
  cases : float list;    (* CASE frames received, in order *)
  done_at : float;       (* DONE received *)
}

type stages = {
  late : float;          (* due -> sent; 0 in a closed loop *)
  admit : float;         (* sent -> admitted *)
  queue_wait : float;    (* admitted -> dispatched *)
  start : float;         (* dispatched -> first CASE *)
  case_gaps : float list;(* between consecutive CASE frames *)
  finish : float;        (* last CASE (or dispatch, if none) -> DONE *)
}

let stages j =
  let rec gaps = function a :: (b :: _ as rest) -> (b -. a) :: gaps rest | _ -> [] in
  let first, last =
    match j.cases with
    | [] -> (j.dispatched, j.dispatched)
    | c :: _ -> (c, List.fold_left (fun _ x -> x) c j.cases)
  in
  { late = (match j.due with Some due -> lateness ~due ~sent:j.sent | None -> 0.0);
    admit = j.admitted -. j.sent;
    queue_wait = j.dispatched -. j.admitted;
    start = first -. j.dispatched;
    case_gaps = gaps j.cases;
    finish = j.done_at -. last }

let stages_total s =
  s.late +. s.admit +. s.queue_wait +. s.start
  +. List.fold_left ( +. ) 0.0 s.case_gaps
  +. s.finish

let latency j =
  match j.due with
  | Some due -> open_loop_latency ~due ~done_at:j.done_at
  | None -> j.done_at -. j.sent

(* -- pair rule ------------------------------------------------------------ *)

type direction = Lower | Higher

let better dir a b = match dir with Lower -> b < a | Higher -> b > a

type verdict = Agree | Worse | Unresolved

let verdict_name = function Agree -> "agree" | Worse -> "worse" | Unresolved -> "unresolved"

(* The change's median may be worse than the parent's by at most [bound]
   (a share of the parent's median). When either side's own run-to-run
   spread is wider than the bound, the pairing is unresolved, unless every
   run of the change reads better than every run of the parent. *)
let verdict dir ~bound ~parent ~change =
  let mp = median parent and mc = median change in
  if spread parent > bound || spread change > bound then
    if List.for_all (fun c -> List.for_all (fun p -> better dir p c) parent) change then Agree
    else Unresolved
  else
    let loss = match dir with Lower -> mc -. mp | Higher -> mp -. mc in
    let rel = if mp = 0.0 then loss else loss /. Float.abs mp in
    if rel > bound then Worse else Agree

(* A claimed gain holds only over at least ten alternating (parent, change)
   pairs when the change wins at least nine tenths of them (ties count for
   neither side) and the medians differ, in the change's favour, by more
   than the parent's own inter-quartile distance. *)
let pair_gain dir ~parent ~change =
  let n = min (List.length parent) (List.length change) in
  if n < 10 then false
  else
    let take k l = List.filteri (fun i _ -> i < k) l in
    let p = take n parent and c = take n change in
    let wins = List.fold_left2 (fun w a b -> if better dir a b then w + 1 else w) 0 p c in
    let q1, _, q3 = quartiles p in
    let gap = median c -. median p in
    let gap = match dir with Lower -> -.gap | Higher -> gap in
    10 * wins >= 9 * n && gap > q3 -. q1
