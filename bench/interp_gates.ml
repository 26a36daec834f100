(* Interpreter gates. Every candidate repair is re-verified by running the
   program under lib/miri, so these gates pin what it does. The workloads
   are MiniRust *programs*, which keeps them representation-agnostic:
   `interp-smoke` fixes their outcomes, outputs and step counts,
   `bytecode-smoke` runs them and the corpus on both engines, and
   `trace-smoke` holds the observability layer's determinism contract. *)

open Harness

(* Allocation-heavy: a tight loop of heap alloc / write / read / free plus
   per-iteration stack locals — stresses allocation setup cost and the
   typed encode/decode path through P_alloc pointers. *)
let interp_alloc_src ~blocks =
  Printf.sprintf
    {|
fn main() {
    let mut i = 0;
    let mut acc = 0;
    while i < %d {
        unsafe {
            let mut p = alloc(64, 8) as *mut i64;
            let mut j = 0;
            while j < 8 {
                *p.offset(j) = i + j;
                j = j + 1;
            }
            acc = acc + *p.offset(7);
            dealloc(p as *mut i8, 64, 8);
        }
        i = i + 1;
    }
    print(acc);
}
|}
    blocks

(* Pointer-chasing: a linked list threaded through integer-stored addresses,
   so every hop is a wildcard (exposed-provenance) access that must resolve
   its address to an allocation — the address-resolution hot path. *)
let interp_chase_src ~nodes ~rounds =
  Printf.sprintf
    {|
fn main() {
    unsafe {
        let mut head = 0;
        let mut i = 0;
        while i < %d {
            let mut p = alloc(16, 8) as *mut i64;
            *p = head;
            *p.offset(1) = i;
            head = p as i64;
            i = i + 1;
        }
        let mut round = 0;
        let mut acc = 0;
        while round < %d {
            let mut cur = head;
            while cur != 0 {
                let mut q = cur as *mut i64;
                acc = acc + *q.offset(1);
                cur = *q;
            }
            round = round + 1;
        }
        let mut cur = head;
        while cur != 0 {
            let mut q = cur as *mut i64;
            let mut next = *q;
            dealloc(q as *mut i8, 16, 8);
            cur = next;
        }
        print(acc);
    }
}
|}
    nodes rounds

(* Race-check: three workers hammer an atomic counter and their own private
   statics — every access runs the vector-clock race machinery, no race is
   ever reported, and the scheduler interleaves deterministically. *)
let interp_race_src ~iters =
  Printf.sprintf
    {|
static mut TOTAL: i64 = 0;
static mut W0: i64 = 0;
static mut W1: i64 = 0;
static mut W2: i64 = 0;

fn worker(p: *mut i64, k: i64) {
    unsafe {
        let mut i = 0;
        while i < k {
            atomic_add(&raw mut TOTAL, 1);
            *p = *p + 1;
            i = i + 1;
        }
    }
}

fn main() {
    unsafe {
        let h0 = spawn worker(&raw mut W0, %d);
        let h1 = spawn worker(&raw mut W1, %d);
        let h2 = spawn worker(&raw mut W2, %d);
        join(h0);
        join(h1);
        join(h2);
        print(atomic_load(&raw mut TOTAL) + W0 + W1 + W2);
    }
}
|}
    iters iters iters

(* Call/locals churn: many short calls each binding a handful of locals —
   stresses frame setup and local-variable lookup in the machine. *)
let interp_calls_src ~calls =
  Printf.sprintf
    {|
fn leaf(a: i64, b: i64) -> i64 {
    let mut x = a + b;
    let mut y = x * 2;
    let mut z = y - a;
    let mut w = z + x;
    return w - y;
}

fn main() {
    let mut i = 0;
    let mut acc = 0;
    while i < %d {
        let mut t = leaf(i, acc);
        acc = acc + t - t + 1;
        i = i + 1;
    }
    print(acc);
}
|}
    calls

let interp_workloads =
  [ ("alloc-heavy", interp_alloc_src ~blocks:3000);
    ("pointer-chase", interp_chase_src ~nodes:250 ~rounds:40);
    ("race-check", interp_race_src ~iters:1200);
    ("call-locals", interp_calls_src ~calls:4000) ]

let interp_run src =
  let program = Minirust.Parser.parse src in
  match Minirust.Typecheck.check program with
  | Error errs ->
    failwith ("interp workload does not typecheck: " ^ Minirust.Typecheck.errors_to_string errs)
  | Ok info ->
    let config = { Miri.Machine.default_config with Miri.Machine.max_steps = 500_000_000 } in
    Miri.Machine.run ~config program info

(* -- interp smoke gate (dune runtest alias interp-smoke) ---------------- *)

(* Tiny fixed-seed versions of the interp workloads plus one UB probe,
   asserting exact outcomes, print traces, step counts and diagnostic
   strings — a representation-change tripwire, not a timing test. The
   expected strings below were recorded from the pre-overhaul interpreter
   and are part of the diagnostics-stability contract. *)

let interp_smoke_expect =
  [ ("alloc-smoke", interp_alloc_src ~blocks:40,
     "finished", [ "1060" ], 1325);
    ("chase-smoke", interp_chase_src ~nodes:12 ~rounds:4,
     "finished", [ "264" ], 357);
    ("race-smoke", interp_race_src ~iters:50,
     "finished", [ "300" ], 620);
    ("calls-smoke", interp_calls_src ~calls:60,
     "finished", [ "60" ], 545) ]

let interp_smoke_ub_src =
  {|
fn main() {
    unsafe {
        let mut p = alloc(8, 8) as *mut i64;
        *p = 7;
        let mut a = p as i64;
        dealloc(p as *mut i8, 8, 8);
        let mut q = a as *mut i64;
        print(*q);
    }
}
|}

let interp_smoke_ub_expect =
  "UB(dangling pointer) in thread 0: use of deallocated memory (allocation 1 at address 4104)"

let interp_smoke () =
  section "Interp smoke — fixed-seed workload outcomes and diagnostics";
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL %s\n" s; incr failures) fmt in
  List.iter
    (fun (name, src, want_outcome, want_output, want_steps) ->
      let r = interp_run src in
      let outcome =
        match r.Miri.Machine.outcome with
        | Miri.Machine.Finished -> "finished"
        | Miri.Machine.Panicked m -> "panicked: " ^ m
        | Miri.Machine.Ub d -> Miri.Diag.to_string d
        | Miri.Machine.Step_limit -> "step limit"
        | Miri.Machine.Resource_limit m -> "resource limit: " ^ m
      in
      if outcome <> want_outcome then
        fail "%s: outcome %S (want %S)" name outcome want_outcome;
      if r.Miri.Machine.output <> want_output then
        fail "%s: output [%s] (want [%s])" name
          (String.concat "; " r.Miri.Machine.output)
          (String.concat "; " want_output);
      if r.Miri.Machine.diags <> [] then
        fail "%s: unexpected diagnostics" name;
      if r.Miri.Machine.steps <> want_steps then
        fail "%s: steps %d (want %d)" name r.Miri.Machine.steps want_steps;
      Printf.printf "%-14s %s output=[%s] steps=%d\n" name outcome
        (String.concat "; " r.Miri.Machine.output) r.Miri.Machine.steps)
    interp_smoke_expect;
  (let r = interp_run interp_smoke_ub_src in
   match r.Miri.Machine.outcome with
   | Miri.Machine.Ub d ->
     let got = Miri.Diag.to_string d in
     if got <> interp_smoke_ub_expect then
       fail "ub-smoke: diag %S (want %S)" got interp_smoke_ub_expect;
     Printf.printf "%-14s %s\n" "ub-smoke" got
   | _ -> fail "ub-smoke: expected a UB outcome");
  if !failures > 0 then exit 1;
  print_endline "interp smoke ok"

(* -- bytecode differential gate (dune runtest alias bytecode-smoke) ----- *)

(* Every corpus case (buggy and fixed, Stop_first and Collect, tracing on)
   plus the interp workloads across scheduler seeds, executed by both the
   bytecode VM and the tree-walker; every observable — outcome, print
   trace, diagnostic strings, borrow/allocation events, step and error
   counts — must be byte-identical. This is the differential contract that
   lets the default engine be the VM while the golden corpus stays the
   single source of expected diagnostics. *)

let bytecode_smoke () =
  section "Bytecode smoke — VM vs tree-walker differential gate";
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL %s\n" s; incr failures) fmt in
  let render (r : Miri.Machine.run_result) =
    let b = Buffer.create 256 in
    let outcome =
      match r.Miri.Machine.outcome with
      | Miri.Machine.Finished -> "finished"
      | Miri.Machine.Panicked m -> "panicked: " ^ m
      | Miri.Machine.Ub d -> "ub: " ^ Miri.Diag.to_string d
      | Miri.Machine.Step_limit -> "step-limit"
      | Miri.Machine.Resource_limit m -> "resource-limit: " ^ m
    in
    Buffer.add_string b
      (Printf.sprintf "outcome: %s\nsteps: %d errors: %d\n" outcome
         r.Miri.Machine.steps r.Miri.Machine.error_count);
    List.iter (fun s -> Buffer.add_string b ("out: " ^ s ^ "\n")) r.Miri.Machine.output;
    List.iter
      (fun d -> Buffer.add_string b ("diag: " ^ Miri.Diag.to_string d ^ "\n"))
      r.Miri.Machine.diags;
    List.iter (fun e -> Buffer.add_string b ("event: " ^ e ^ "\n")) r.Miri.Machine.events;
    Buffer.contents b
  in
  let first_divergence want got =
    let wl = String.split_on_char '\n' want and gl = String.split_on_char '\n' got in
    let rec go i = function
      | w :: ws, g :: gs -> if w = g then go (i + 1) (ws, gs) else (i, w, g)
      | w :: _, [] -> (i, w, "<end>")
      | [], g :: _ -> (i, "<end>", g)
      | [], [] -> (i, "", "")
    in
    go 1 (wl, gl)
  in
  let checked = ref 0 in
  let check ?(max_steps = Miri.Machine.default_config.Miri.Machine.max_steps) label
      src ~mode ~seed ~inputs ~trace =
    let program = Minirust.Parser.parse src in
    match Minirust.Typecheck.check program with
    | Error _ -> ()  (* differential gate only covers well-typed programs *)
    | Ok info ->
      let config engine =
        { Miri.Machine.default_config with
          Miri.Machine.mode; seed; inputs; trace; max_steps; engine }
      in
      let tree =
        render (Miri.Machine.run ~config:(config Miri.Machine.Tree_walk) program info)
      in
      let vm =
        render (Miri.Machine.run ~config:(config Miri.Machine.Bytecode) program info)
      in
      incr checked;
      if tree <> vm then begin
        let line, w, g = first_divergence tree vm in
        fail "%s: engines diverge at line %d\n  tree:     %s\n  bytecode: %s" label
          line w g
      end
  in
  List.iter
    (fun (c : Dataset.Case.t) ->
      let inputs = match c.Dataset.Case.probes with p :: _ -> p | [] -> [||] in
      List.iter
        (fun (variant, src) ->
          List.iter
            (fun (mode_name, mode) ->
              check
                (Printf.sprintf "%s/%s/%s" c.Dataset.Case.name variant mode_name)
                src ~mode ~seed:1 ~inputs ~trace:true)
            [ ("stop-first", Miri.Machine.Stop_first);
              ("collect-5", Miri.Machine.Collect 5) ])
        [ ("buggy", c.Dataset.Case.buggy_src); ("fixed", c.Dataset.Case.fixed_src) ])
    Dataset.Corpus.all;
  List.iter
    (fun (name, src) ->
      List.iter
        (fun seed ->
          check ~max_steps:500_000_000
            (Printf.sprintf "%s/seed-%d" name seed)
            src ~mode:Miri.Machine.Stop_first ~seed ~inputs:[||] ~trace:false)
        [ 1; 2; 7 ])
    (("ub-probe", interp_smoke_ub_src) :: interp_workloads);
  Printf.printf "compared %d program runs across both engines\n" !checked;
  if !failures > 0 then exit 1;
  print_endline "bytecode smoke ok"

(* -- trace smoke gate (dune runtest alias trace-smoke) ------------------ *)

(* Determinism contract of the observability layer: a seeded campaign's
   JSONL trace is byte-identical run to run (simulated timestamps only,
   per-job buffers folded in job order), and turning tracing on changes
   no report. Exercised at domains=2 so the per-domain buffer fold and the
   cross-session memo suppression are actually in play. *)
let trace_smoke () =
  section "Trace smoke — deterministic campaign traces; tracing invisible to reports";
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL %s\n" s; incr failures) fmt in
  let cases = List.filteri (fun i _ -> i mod 8 = 0) Dataset.Corpus.all in
  let runner = Exec.Backends.rustbrain () in
  let traced () =
    let tmp = Filename.temp_file "rb-trace" ".jsonl" in
    let sink = Obs.Trace.file tmp in
    let reports, _ =
      Exec.Scheduler.run_seeded ~domains:2 ~trace:sink runner ~seeds:[ 1; 2 ]
        cases
    in
    Obs.Trace.close sink;
    let contents = Option.value ~default:"" (Rb_util.Fsfile.read tmp) in
    Sys.remove tmp;
    (contents, List.map Rustbrain.Report.to_json reports)
  in
  let t1, r1 = traced () in
  let t2, r2 = traced () in
  if t1 = "" then fail "trace file empty";
  if t1 <> t2 then fail "trace not byte-identical across identical seeded runs";
  if r1 <> r2 then fail "reports differ between traced runs";
  let plain, _ =
    Exec.Scheduler.run_seeded ~domains:2 runner ~seeds:[ 1; 2 ] cases
  in
  if List.map Rustbrain.Report.to_json plain <> r1 then
    fail "tracing changed the reports";
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' t1) in
  let parsed =
    List.filter_map
      (fun l ->
        match Obs.Trace.of_jsonl l with
        | Ok r -> Some r
        | Error e ->
          fail "unparseable trace line (%s): %s" e l;
          None)
      lines
  in
  List.iter
    (fun want ->
      if
        not
          (List.exists
             (fun (r : Obs.Trace.record) -> r.Obs.Trace.name = want)
             parsed)
      then fail "no %S record in the trace" want)
    [ "campaign-start"; "job-start"; "parse"; "typecheck"; "interpret";
      "fast-think"; "slow-think"; "re-verify"; "llm-call"; "interp";
      "repair"; "job-end"; "scheduler" ];
  if !failures > 0 then exit 1;
  Printf.printf "trace smoke ok (%d records, %d cases x 2 seeds)\n"
    (List.length parsed) (List.length cases)
