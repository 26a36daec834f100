(* rbbench: the end-to-end benchmark with per-layer attribution.

     rbbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
     rbbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
     rbbench smoke --benchmark BENCHMARK.json

   `run` runs each workload (default: all three) in a fresh child process,
   prints every metric by name, unit and workload, appends one JSON record
   per workload to --out, and ends its standard output with one JSON line
   {"correct","attempted","failed","metrics"}. It exits non-zero when an
   output check fails or a run breaks its own rules. See README.md. *)

open Common

let workloads = [ "campaign"; "serve-small"; "serve-kb" ]

let exe () =
  if Filename.is_relative Sys.executable_name then
    Filename.concat (Sys.getcwd ()) Sys.executable_name
  else Sys.executable_name

(* the repair CLI is built next to this executable, in the same tree *)
let cli () = Filename.concat (Filename.dirname (exe ())) "../bin/rustbrain_cli.exe"

let usage () =
  prerr_endline
    "usage: rbbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \       rbbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]\n\
    \       rbbench smoke [--benchmark BENCHMARK.json]";
  exit 2

(* --key value pairs after the subcommand, plus positional arguments *)
let parse_args args =
  let rec go kv pos = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: kv) pos rest
    | [ k ] when String.length k > 2 && String.sub k 0 2 = "--" -> usage ()
    | a :: rest -> go kv (a :: pos) rest
    | [] -> (List.rev kv, List.rev pos)
  in
  go [] [] args

let opt kv k d = Option.value ~default:d (List.assoc_opt k kv)
let int_opt kv k d = match int_of_string_opt (opt kv k (string_of_int d)) with Some i -> i | None -> usage ()

let float_opt kv k d =
  match float_of_string_opt (opt kv k (string_of_float d)) with Some f when f > 0.0 -> f | _ -> usage ()

(* -- workload plans -------------------------------------------------------------- *)

(* a serve run times set-up this many times, spread over the run, and
   reports the median; the campaign times it before each round *)
let probes = 24

(* BENCHMARK.json's run_seconds *)
let default_seconds = 35.0

(* Full scale, from the run length [s] in seconds: serve-small's open loop
   takes a fixed 320 jobs at 25 jobs/s (12.8 s) and its closed loop the
   rest, the two alternating in 8 segments so each samples the whole run.
   25 jobs/s is under half the closed-loop capacity, and stays under it
   when the host runs at half speed. *)
let small_plan s =
  let rate = 25.0 and phase_b_jobs = 320 in
  { Serve_wl.s_probes = probes; rate; phase_b_jobs; relaxed = false; segments = 8;
    phase_a_s = Float.max 3.0 (s -. (float_of_int phase_b_jobs /. rate)) }

let kb_plan s =
  { Serve_wl.k_probes = probes; entries = 10_000; list_len = 8; seconds = s; k_relaxed = false }

(* ~1/50 scale for the runtest smoke: every code path, no statistics *)
let smoke_small =
  { Serve_wl.s_probes = 2; rate = 20.0; phase_b_jobs = 10; relaxed = true; segments = 2; phase_a_s = 0.3 }

let smoke_kb = { Serve_wl.k_probes = 2; entries = 200; list_len = 8; seconds = 0.4; k_relaxed = true }

(* the smoke repairs every 8th light case only *)
let smoke_pool = List.filteri (fun i _ -> i mod 8 = 0) Serve_wl.small_pool

let run_workload ~name ~seed ~seconds ~traced ~smoke =
  let cli = cli () in
  let cases = if smoke then Some smoke_pool else None in
  match name with
  | "campaign" ->
    let seconds = if smoke then 0.2 else seconds in
    if traced then Campaign_wl.traced ?cases ~seed ~seconds ()
    else
      Campaign_wl.untraced ?cases ~exe:(exe ()) ~seed ~seconds ~relaxed:smoke ()
  | "serve-small" ->
    Serve_wl.serve_small ?pool:cases ~cli ~seed ~traced
      (if smoke then smoke_small else small_plan seconds)
  | "serve-kb" ->
    Serve_wl.serve_kb ?pool:cases ~cli ~seed ~traced (if smoke then smoke_kb else kb_plan seconds)
  | w -> failwith ("unknown workload " ^ w)

(* Child side: run one workload, write its record to [result]. Signals
   unwind through the workload's cleanup (server shutdown, state dir
   removal) before the process exits. *)
let child kv =
  (* the first signal starts the unwinding; later ones must not cut the
     cleanup short *)
  let stop _ =
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    Sys.set_signal Sys.sigterm Sys.Signal_ignore;
    raise Exit
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  match
    run_workload ~name:(opt kv "workload" "") ~seed:(int_opt kv "seed" 1)
      ~seconds:(float_opt kv "seconds" default_seconds) ~traced:(opt kv "trace" "0" = "1")
      ~smoke:(opt kv "smoke" "0" = "1")
  with
  | o -> write_file (opt kv "result" "") (J.to_string (record_json o))
  | exception Exit -> exit 130

(* Parent side: one child per workload, so each starts from a fresh heap,
   fresh domains and an empty knowledge-base registry. *)
let spawn_child ~name ~seed ~seconds ~traced ~smoke =
  let dir = fresh_dir "result" in
  let result = Filename.concat dir "result.json" in
  let args =
    [| exe (); "__workload"; "--workload"; name; "--seed"; string_of_int seed;
       "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
       "--smoke"; (if smoke then "1" else "0"); "--result"; result |]
  in
  let pid = Unix.create_process (exe ()) args Unix.stdin Unix.stderr Unix.stderr in
  let interrupted = ref false in
  let forward _ =
    interrupted := true;
    try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()
  in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle forward) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle forward) in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  let r =
    match (status, Rb_util.Fsfile.read result) with
    | Unix.WEXITED 0, Some s -> (
      match Result.bind (J.parse s) outcome_of_json with
      | Ok o -> Ok o
      | Error e -> Error (name ^ ": " ^ e))
    | _ -> Error (Printf.sprintf "%s: workload process failed" name)
  in
  rm_rf dir;
  if !interrupted then exit 130;
  r

let print_table outcomes =
  List.iter
    (fun o ->
      Printf.printf "== %s (seed %d, %s): %d attempted, %d failed, outputs %s%s\n" o.workload o.seed
        (if o.traced then "traced" else "untraced")
        o.attempted o.failed
        (if o.correct then "correct" else "WRONG")
        (if o.valid then "" else ", run INVALID");
      List.iter
        (fun m ->
          Printf.printf "  %-12s %-34s %14.4f %-9s %s\n" o.workload m.name m.value m.unit_ m.note)
        o.metrics;
      List.iter (fun p -> Printf.printf "  problem: %s\n" p) o.problems)
    outcomes

let run kv =
  let seed = int_opt kv "seed" 1 and seconds = float_opt kv "seconds" default_seconds in
  let traced = opt kv "trace" "0" = "1" in
  let names =
    match List.assoc_opt "workload" kv with
    | None -> workloads
    | Some w when List.mem w workloads -> [ w ]
    | Some w ->
      Printf.eprintf "unknown workload %S (known: %s)\n" w (String.concat ", " workloads);
      exit 2
  in
  let results = List.map (fun name -> spawn_child ~name ~seed ~seconds ~traced ~smoke:false) names in
  let outcomes = List.filter_map Result.to_option results in
  List.iter (function Error e -> Printf.eprintf "rbbench: %s\n" e | Ok _ -> ()) results;
  print_table outcomes;
  (match List.assoc_opt "out" kv with
  | Some f ->
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 f (fun oc ->
        List.iter (fun o -> output_string oc (J.to_string (record_json o) ^ "\n")) outcomes)
  | None -> ());
  (match outcomes with
  | [ o ] -> print_endline (J.to_string (contract_json o))
  | os ->
    print_endline
      (J.to_string
         (J.Obj
            [ ("correct", J.Bool (List.for_all (fun o -> o.correct) os));
              ("attempted", num (float_of_int (List.fold_left (fun a o -> a + o.attempted) 0 os)));
              ("failed", num (float_of_int (List.fold_left (fun a o -> a + o.failed) 0 os)));
              ("workloads", J.Obj (List.map (fun o -> (o.workload, metrics_json o.metrics)) os)) ])));
  let ok = List.for_all Result.is_ok results && List.for_all (fun o -> o.correct && o.valid) outcomes in
  exit (if ok then 0 else 1)

(* -- BENCHMARK.json ----------------------------------------------------------------- *)

type spec = { m_name : string; better : Bench_stats.direction option; bound : float option }

let read_specs path =
  let doc =
    match Option.map J.parse (Rb_util.Fsfile.read path) with
    | Some (Ok j) -> j
    | _ ->
      Printf.eprintf "cannot read %s\n" path;
      exit 2
  in
  let specs key =
    match J.member key doc with
    | Some (J.List l) ->
      List.filter_map
        (fun m ->
          match Option.bind (J.member "name" m) J.to_str with
          | None -> None
          | Some m_name ->
            let better =
              match Option.bind (J.member "better" m) J.to_str with
              | Some "lower" -> Some Bench_stats.Lower
              | Some "higher" -> Some Bench_stats.Higher
              | _ -> None
            in
            Some { m_name; better; bound = Option.bind (J.member "bound" m) J.to_float })
        l
    | _ -> []
  in
  (specs "end_to_end", specs "per_layer")

(* -- compare ------------------------------------------------------------------------ *)

let read_records path =
  match Rb_util.Fsfile.read path with
  | None ->
    Printf.eprintf "cannot read %s\n" path;
    exit 2
  | Some s ->
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else Result.to_option (Result.bind (J.parse line) outcome_of_json))
      (String.split_on_char '\n' s)

let values records ~workload ~traced name =
  List.filter_map
    (fun o ->
      if o.workload = workload && o.traced = traced then
        Option.map (fun m -> m.value) (List.find_opt (fun m -> m.name = name) o.metrics)
      else None)
    records

let compare_cmd kv pos =
  let a_path, b_path = match pos with [ a; b ] -> (a, b) | _ -> usage () in
  let e2e, layer = read_specs (opt kv "benchmark" "BENCHMARK.json") in
  let a = read_records a_path and b = read_records b_path in
  let worse = ref 0 in
  let row ~workload ~traced (s : spec) =
    let va = values a ~workload ~traced s.m_name and vb = values b ~workload ~traced s.m_name in
    if va <> [] && vb <> [] then begin
      let q l = Bench_stats.quartiles l in
      let qa1, ma, qa3 = q va and qb1, mb, qb3 = q vb in
      let label =
        match (s.better, s.bound) with
        | Some dir, Some bound ->
          let v = Bench_stats.verdict dir ~bound ~parent:va ~change:vb in
          if v = Bench_stats.Worse then incr worse;
          Bench_stats.verdict_name v
          ^ if Bench_stats.pair_gain dir ~parent:va ~change:vb then " (gain by the pair rule)" else ""
        | _ -> "-"
      in
      Printf.printf "%-12s %-34s A %12.4f [%.4f, %.4f] n=%-3d B %12.4f [%.4f, %.4f] n=%-3d %s\n"
        workload s.m_name ma qa1 qa3 (List.length va) mb qb1 qb3 (List.length vb) label
    end
  in
  List.iter
    (fun workload ->
      List.iter (row ~workload ~traced:false) e2e;
      List.iter (row ~workload ~traced:true) layer)
    workloads;
  exit (if !worse > 0 then 1 else 0)

(* -- smoke ---------------------------------------------------------------------------- *)

(* Every workload, untraced and traced, at ~1/50 scale: output checks
   pass, nothing fails, and every metric BENCHMARK.json names is printed
   and finite. *)
let smoke kv =
  let e2e, layer = read_specs (opt kv "benchmark" "BENCHMARK.json") in
  let bad = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr bad; Printf.printf "FAIL %s\n%!" s) fmt in
  List.iter
    (fun traced ->
      List.iter
        (fun name ->
          match spawn_child ~name ~seed:1 ~seconds:1.0 ~traced ~smoke:true with
          | Error e -> fail "%s" e
          | Ok o ->
            print_table [ o ];
            if not o.correct then fail "%s: output checks failed" name;
            if not o.valid then fail "%s: run broke its own rules" name;
            if o.failed > 0 then fail "%s: %d failed operations" name o.failed;
            let want = List.map (fun s -> s.m_name) (if traced then layer else e2e) in
            let got = List.map (fun m -> m.name) o.metrics in
            List.iter (fun n -> if not (List.mem n got) then fail "%s: metric %s missing" name n) want;
            List.iter (fun n -> if not (List.mem n want) then fail "%s: metric %s not in BENCHMARK.json" name n) got;
            List.iter
              (fun m -> if not (Float.is_finite m.value) then fail "%s: %s is not finite" name m.name)
              o.metrics)
        workloads)
    [ false; true ];
  if !bad > 0 then begin
    Printf.printf "benchmark-smoke: %d failure(s)\n" !bad;
    exit 1
  end;
  print_endline "benchmark-smoke: ok"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "__setup-probe" :: _ -> Campaign_wl.probe_main ()
  | [ "__campaign-round"; first; count; names ] ->
    Campaign_wl.round_main ~first:(int_of_string first) ~count:(int_of_string count)
      (List.map
         (fun n -> Option.get (Dataset.Corpus.find n))
         (String.split_on_char ',' names))
  | "__workload" :: rest -> child (fst (parse_args rest))
  | "run" :: rest -> run (fst (parse_args rest))
  | "compare" :: rest ->
    let kv, pos = parse_args rest in
    compare_cmd kv pos
  | "smoke" :: rest -> smoke (fst (parse_args rest))
  | _ -> usage ()
