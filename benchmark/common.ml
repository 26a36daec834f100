(* Clocks, metric records, result files and process/filesystem helpers
   shared by the workloads. *)

let now () = Unix.gettimeofday ()

(* nanosecond monotonic clock for in-process spans *)
let mono_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let contains hay sub =
  let n = String.length hay and m = String.length sub in
  let rec go i = i + m <= n && (String.sub hay i m = sub || go (i + 1)) in
  go 0

type metric = {
  name : string;
  unit_ : string;
  value : float;
  note : string;  (* sample count / percentile actually used, for the table *)
}

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

type outcome = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;          (* every output check passed *)
  valid : bool;            (* the run kept its own rules (sample sizes, schedule) *)
  attempted : int;
  failed : int;
  metrics : metric list;
  problems : string list;  (* every failed check, rule and operation *)
}

(* Build an outcome from its two kinds of problem: [wrong] output checks
   and [broken] run rules; failed operations are counted separately. *)
let outcome ~workload ~seed ~traced ~wrong ~broken ~attempted ~failures metrics =
  { workload; seed; traced; correct = wrong = []; valid = broken = []; attempted;
    failed = List.length failures; metrics; problems = wrong @ broken @ failures }

module J = Rb_util.Json

let num f = J.Num f

let metrics_json ms =
  J.Obj
    (List.map
       (fun m -> (m.name, J.Obj [ ("value", num m.value); ("unit", J.Str m.unit_) ]))
       ms)

(* The line the benchmark contract reads: exactly these four keys. *)
let contract_json o =
  J.Obj
    [ ("correct", J.Bool o.correct);
      ("attempted", num (float_of_int o.attempted));
      ("failed", num (float_of_int o.failed));
      ("metrics", metrics_json o.metrics) ]

(* The record `run --out` appends and `compare` reads. The seed is a
   string: a JSON number holds integers exactly only up to 2^53. *)
let record_json o =
  J.Obj
    [ ("workload", J.Str o.workload);
      ("seed", J.Str (string_of_int o.seed));
      ("trace", J.Bool o.traced);
      ("correct", J.Bool o.correct);
      ("valid", J.Bool o.valid);
      ("attempted", num (float_of_int o.attempted));
      ("failed", num (float_of_int o.failed));
      ("metrics", metrics_json o.metrics);
      ("notes",
       J.Obj (List.filter_map (fun m -> if m.note = "" then None else Some (m.name, J.Str m.note)) o.metrics));
      ("problems", J.List (List.map (fun s -> J.Str s) o.problems)) ]

let outcome_of_json j =
  let str k = Option.bind (J.member k j) J.to_str in
  let int k = Option.bind (J.member k j) J.to_int in
  let bool k = Option.bind (J.member k j) J.to_bool in
  let seed = Option.bind (str "seed") int_of_string_opt in
  match (str "workload", seed, bool "correct", int "attempted", int "failed", J.member "metrics" j) with
  | Some workload, Some seed, Some correct, Some attempted, Some failed, Some (J.Obj ms) ->
    let notes = match J.member "notes" j with Some (J.Obj ns) -> ns | _ -> [] in
    let metrics =
      List.filter_map
        (fun (name, v) ->
          match (Option.bind (J.member "value" v) J.to_float, Option.bind (J.member "unit" v) J.to_str) with
          | Some value, Some unit_ ->
            let note = match List.assoc_opt name notes with Some (J.Str s) -> s | _ -> "" in
            Some { name; unit_; value; note }
          | _ -> None)
        ms
    in
    let problems =
      match J.member "problems" j with
      | Some (J.List ps) -> List.filter_map J.to_str ps
      | _ -> []
    in
    Ok
      { workload; seed; traced = bool "trace" = Some true; correct;
        valid = bool "valid" <> Some false; attempted; failed; metrics; problems }
  | _ -> Error "not a benchmark run record"

(* The paper's pass and exec rates, and the median simulated repair time:
   a few repairs whose KB queries fall back to a full scan are charged
   hundreds of simulated seconds, so the mean would follow those few. *)
let quality_metrics ~passed ~semantic ~sim_seconds =
  let share k = float_of_int k /. float_of_int (max 1 (List.length sim_seconds)) in
  [ metric "pass_rate" "fraction" (share passed);
    metric "exec_rate" "fraction" (share semantic);
    metric "sim_s_p50" "sim_s" (if sim_seconds = [] then 0.0 else Bench_stats.median sim_seconds) ]

let report_quality (reports : Rustbrain.Report.t list) =
  let count f = List.length (List.filter f reports) in
  quality_metrics
    ~passed:(count (fun r -> r.Rustbrain.Report.passed))
    ~semantic:(count (fun r -> r.Rustbrain.Report.semantic))
    ~sim_seconds:(List.map (fun r -> r.Rustbrain.Report.seconds) reports)

(* -- percentiles as metrics ------------------------------------------------ *)

(* An end-to-end percentile obeys the ten-beyond rule or the run fails;
   [relaxed] (the scaled-down smoke run only) falls back to the tail the
   sample supports and says so in the note. *)
let e2e_percentile ~relaxed ~p name xs =
  match Bench_stats.percentile ~p xs with
  | Ok v -> Ok (metric ~note:(Printf.sprintf "n=%d" (List.length xs)) name "ms" v)
  | Error e when relaxed -> (
    match Bench_stats.tail xs with
    | Some (q, v) ->
      Ok (metric ~note:(Printf.sprintf "smoke: p%.1f of n=%d" q (List.length xs)) name "ms" v)
    | None -> Error e)
  | Error e -> Error (Printf.sprintf "%s: %s" name e)

(* Per-layer latency summary: median and the highest supported tail. An
   empty sample (a stage the workload never enters) reads 0 with n=0. *)
let layer_summary name xs =
  let n = List.length xs in
  match Bench_stats.tail xs with
  | None -> [ metric ~note:"n=0" (name ^ ".p50") "ms" 0.0; metric ~note:"n=0" (name ^ ".tail") "ms" 0.0 ]
  | Some (q, v) ->
    [ metric ~note:(Printf.sprintf "n=%d" n) (name ^ ".p50") "ms" (Bench_stats.median xs);
      metric ~note:(Printf.sprintf "p%.1f of n=%d" q n) (name ^ ".tail") "ms" v ]

(* serve.* stage summaries from job clocks (clock unit times [ms] gives
   milliseconds). The stages telescope, so coverage is the share of all
   job latency, [unjoined_latency] included, that they account for. *)
let stage_layers ~ms ~unjoined_latency clocks =
  let st = List.map Bench_stats.stages clocks in
  let each f = List.map (fun s -> ms *. f s) st in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let latency = sum Bench_stats.latency clocks +. unjoined_latency in
  layer_summary "serve.admit_ms" (each (fun s -> s.Bench_stats.admit))
  @ layer_summary "serve.queue_wait_ms" (each (fun s -> s.Bench_stats.queue_wait))
  @ layer_summary "serve.start_ms" (each (fun s -> s.Bench_stats.start))
  @ layer_summary "serve.case_gap_ms"
      (List.concat_map (fun s -> List.map (fun g -> ms *. g) s.Bench_stats.case_gaps) st)
  @ layer_summary "serve.finish_ms" (each (fun s -> s.Bench_stats.finish))
  @ [ metric
        ~note:(Printf.sprintf "%d jobs joined" (List.length clocks))
        "serve.coverage" "fraction"
        (if latency > 0.0 then sum Bench_stats.stages_total st /. latency else 0.0) ]

(* How late the load generator ran, in ms: behind schedule in an open
   loop, DONE-to-next-SUBMIT in a closed one. *)
let late_layers late_ms =
  [ metric ~note:(Printf.sprintf "n=%d" (List.length late_ms)) "loadgen.late_ms.tail" "ms"
      (match Bench_stats.tail late_ms with Some (_, v) -> v | None -> 0.0);
    metric "loadgen.late_ms.max" "ms" (List.fold_left Float.max 0.0 late_ms) ]

(* -- filesystem ------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* bytes of the regular files under [path], recursively *)
let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun b n -> b + du (Filename.concat path n)) 0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let list_dir path = try Array.to_list (Sys.readdir path) with Sys_error _ -> []

(* (files, bytes, largest session snapshot) of one Exec.Journal directory *)
let journal_usage dir =
  List.fold_left
    (fun (files, bytes, snap) f ->
      let size = try (Unix.stat (Filename.concat dir f)).Unix.st_size with Unix.Unix_error _ -> 0 in
      ( files + 1,
        bytes + size,
        if String.length f > 5 && String.sub f 0 5 = "snap-" then max snap size else snap ))
    (0, 0, 0) (list_dir dir)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* All harness state lives under this directory of the working tree (the
   checkout root when run through benchmark/run.sh). *)
let work_root = ".rbbench"

let fresh_dir tag =
  Rb_util.Fsfile.mkdir_p work_root;
  let rec go i =
    let d = Filename.concat work_root (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) i) in
    if Sys.file_exists d then go (i + 1)
    else begin
      Unix.mkdir d 0o755;
      d
    end
  in
  go 0

(* -- /proc ----------------------------------------------------------------- *)

let read_proc path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* a "Key:   123 kB" line of /proc/<pid>/status, in KiB *)
let status_kb pid key =
  match read_proc (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key -> (
          let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          match String.split_on_char ' ' rest with
          | v :: _ -> Option.value ~default:acc (int_of_string_opt v)
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' s)

let children pid =
  match read_proc (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | None -> []
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))

(* Live (not zombie) processes of process group [pgid]: state and group
   are fields 3 and 5 of /proc/<pid>/stat, after the parenthesised name. *)
let live_group_members pgid =
  List.filter_map
    (fun d ->
      match int_of_string_opt d with
      | None -> None
      | Some pid -> (
        match read_proc (Printf.sprintf "/proc/%d/stat" pid) with
        | None -> None
        | Some s -> (
          match String.rindex_opt s ')' with
          | None -> None
          | Some i -> (
            match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
            | state :: _ppid :: pg :: _ when int_of_string_opt pg = Some pgid && state <> "Z" ->
              Some pid
            | _ -> None))))
    (list_dir "/proc")

let cmdline pid =
  match read_proc (Printf.sprintf "/proc/%d/cmdline" pid) with
  | None -> ""
  | Some s -> String.map (fun c -> if c = '\000' then ' ' else c) s
