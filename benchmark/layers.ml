(* Per-layer accounting of repair steps from the pipeline's own spans and
   events. The harness times each Exec.Runner.step itself and installs a
   wall-enabled Obs.Trace memory sink as the ambient sink around it; the
   pipeline then emits its existing parse / typecheck / interpret /
   fast-think / slow-think / re-verify spans (top level within a repair),
   "lower" spans from Miri.Machine wherever a program is run, and one
   "interp" event per interpreter run.

   Spans are emitted when they close, so a "lower" span belongs to the
   next top-level span emitted after it; lowers followed by parse or
   typecheck (which never run programs) ran outside every top-level span.
   Self time is a span's wall time minus the lowers inside it. *)

open Common

type acc = {
  mutable cases : int;
  mutable repair_ms : float list;
  mutable parse : float;
  mutable typecheck : float;
  mutable lower : float;
  mutable lowers : int;
  mutable detect : float;      (* interpret, self *)
  mutable fast : float;        (* fast-think, self *)
  mutable slow : float;        (* slow-think, self *)
  mutable reverify : float;    (* re-verify, self *)
  mutable unattributed : float;
  mutable runs : int;
  mutable steps : int;
  mutable allocs : int;
  mutable llm_calls : int;
  mutable tokens : int;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  { cases = 0; repair_ms = []; parse = 0.; typecheck = 0.; lower = 0.; lowers = 0;
    detect = 0.; fast = 0.; slow = 0.; reverify = 0.; unattributed = 0.; runs = 0;
    steps = 0; allocs = 0; llm_calls = 0; tokens = 0; hits = 0; misses = 0 }

let merge a b =
  { cases = a.cases + b.cases; repair_ms = List.rev_append a.repair_ms b.repair_ms;
    parse = a.parse +. b.parse; typecheck = a.typecheck +. b.typecheck;
    lower = a.lower +. b.lower; lowers = a.lowers + b.lowers; detect = a.detect +. b.detect;
    fast = a.fast +. b.fast; slow = a.slow +. b.slow; reverify = a.reverify +. b.reverify;
    unattributed = a.unattributed +. b.unattributed; runs = a.runs + b.runs;
    steps = a.steps + b.steps; allocs = a.allocs + b.allocs;
    llm_calls = a.llm_calls + b.llm_calls; tokens = a.tokens + b.tokens;
    hits = a.hits + b.hits; misses = a.misses + b.misses }

let int_attr r k =
  match List.assoc_opt k r.Obs.Trace.attrs with Some (Obs.Trace.I i) -> i | _ -> 0

(* Fold the records one step emitted, with the step's own wall time. *)
let add_step acc ~step_ms (report : Rustbrain.Report.t) records =
  let pending = ref 0. and top = ref 0. and outside = ref 0. in
  let close_top wall =
    top := !top +. wall;
    let inner = !pending in
    pending := 0.;
    wall -. inner
  in
  List.iter
    (fun (r : Obs.Trace.record) ->
      let w = r.Obs.Trace.wall_ms in
      match (r.Obs.Trace.kind, r.Obs.Trace.name) with
      | Obs.Trace.Span, "lower" ->
        acc.lower <- acc.lower +. w;
        acc.lowers <- acc.lowers + 1;
        pending := !pending +. w
      | Obs.Trace.Span, ("parse" | "typecheck") ->
        outside := !outside +. !pending;
        ignore (close_top w);
        if r.Obs.Trace.name = "parse" then acc.parse <- acc.parse +. w
        else acc.typecheck <- acc.typecheck +. w
      | Obs.Trace.Span, "interpret" -> acc.detect <- acc.detect +. close_top w
      | Obs.Trace.Span, "fast-think" -> acc.fast <- acc.fast +. close_top w
      | Obs.Trace.Span, "slow-think" -> acc.slow <- acc.slow +. close_top w
      | Obs.Trace.Span, "re-verify" -> acc.reverify <- acc.reverify +. close_top w
      | Obs.Trace.Event, "interp" ->
        acc.runs <- acc.runs + 1;
        acc.steps <- acc.steps + int_attr r "steps";
        acc.allocs <- acc.allocs + int_attr r "allocs"
      | _ -> ())
    records;
  outside := !outside +. !pending;
  acc.cases <- acc.cases + 1;
  acc.repair_ms <- step_ms :: acc.repair_ms;
  acc.unattributed <- acc.unattributed +. (step_ms -. !top -. !outside);
  acc.llm_calls <- acc.llm_calls + report.Rustbrain.Report.llm_calls

(* Report.tokens is the session's running total, so a job contributes the
   value on its last report. *)
let add_job acc (reports : Rustbrain.Report.t list) (stats : Exec.Runner.stats) =
  (match List.rev reports with
  | last :: _ -> acc.tokens <- acc.tokens + last.Rustbrain.Report.tokens
  | [] -> ());
  acc.hits <- acc.hits + stats.Exec.Runner.cache_hits;
  acc.misses <- acc.misses + stats.Exec.Runner.cache_misses

(* One traced step: a fresh wall-enabled sink per step keeps the fold
   linear and the records of different cases apart. *)
let traced_step acc running case =
  let sink, records = Obs.Trace.memory ~wall:true () in
  let t0 = mono_ms () in
  let report = Obs.Trace.with_ambient sink (fun () -> Exec.Runner.step running case) in
  let step_ms = mono_ms () -. t0 in
  add_step acc ~step_ms report (records ());
  report

let per_case acc x = if acc.cases = 0 then 0.0 else x /. float_of_int acc.cases

let metrics acc =
  let pc = per_case acc in
  let fi = float_of_int in
  layer_summary "core.repair_ms" acc.repair_ms
  @ [ metric "core.repair_ms.max" "ms" (List.fold_left Float.max 0.0 acc.repair_ms);
      metric "core.fast_think_ms" "ms" (pc acc.fast);
      metric "core.slow_think_ms" "ms" (pc acc.slow);
      metric "core.reverify_ms" "ms" (pc acc.reverify);
      metric "core.unattributed_ms" "ms" (pc acc.unattributed);
      metric "minirust.parse_ms" "ms" (pc acc.parse);
      metric "minirust.typecheck_ms" "ms" (pc acc.typecheck);
      metric "minirust.lower_ms" "ms" (pc acc.lower);
      metric "minirust.lowers_per_case" "count" (pc (fi acc.lowers));
      metric "miri.detect_ms" "ms" (pc acc.detect);
      metric "miri.runs_per_case" "count" (pc (fi acc.runs));
      metric "miri.steps_per_case" "count" (pc (fi acc.steps));
      metric "miri.allocs_per_case" "count" (pc (fi acc.allocs));
      metric "llm_sim.calls_per_case" "count" (pc (fi acc.llm_calls));
      metric "llm_sim.tokens_per_case" "count" (pc (fi acc.tokens));
      metric "exec.cache_hit_rate" "fraction"
        (Exec.Runner.hit_rate
           { Exec.Runner.no_stats with Exec.Runner.cache_hits = acc.hits; cache_misses = acc.misses }) ]

(* -- knowledge layer ---------------------------------------------------------- *)

let query_vector (c : Dataset.Case.t) =
  let prog = Dataset.Case.buggy c in
  let diags =
    match Minirust.Typecheck.check prog with
    | Ok info -> (Miri.Machine.run prog info).Miri.Machine.diags
    | Error _ -> []
  in
  Knowledge.Featvec.of_program prog diags

(* Kb.query over each distinct case's vector, each timed over repeats *)
let kb_query_ms kb cases =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (c : Dataset.Case.t) ->
      if Hashtbl.mem seen c.Dataset.Case.name then None
      else begin
        Hashtbl.replace seen c.Dataset.Case.name ();
        let v = query_vector c in
        let reps = 20 in
        let t0 = mono_ms () in
        for _ = 1 to reps do
          ignore (Knowledge.Kb.query kb v)
        done;
        Some ((mono_ms () -. t0) /. float_of_int reps)
      end)
    cases

(* A session without a persistent store builds the seeded in-memory KB:
   that is its KB open. *)
let in_memory_kb () =
  let clock = Rb_util.Simclock.create () in
  let t0 = mono_ms () in
  let kb = Knowledge.Kb.create ~clock () in
  Knowledge.Kb.seed_default kb;
  (mono_ms () -. t0, kb)

let kb_layers ~kb_open q =
  [ metric "knowledge.kb_open_ms" "ms" kb_open;
    metric ~note:(Printf.sprintf "n=%d" (List.length q)) "knowledge.kb_query_ms.p50" "ms"
      (Bench_stats.median q) ]

