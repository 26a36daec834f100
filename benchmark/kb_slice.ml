(* Read-only tenant knowledge-base slices for the serve-kb workload: the
   store's seed entries plus synthetic Featvec-shaped entries, written with
   Knowledge.Segment appends. Kb.open_dir is not used to build them: its
   per-process frozen snapshot would hide every later append from the
   in-process reference run. *)

(* The seed entries a fresh writable store is created with. *)
let seed_records ~scratch =
  let clock = Rb_util.Simclock.create () in
  (match Knowledge.Kb.open_dir ~dir:scratch ~clock () with
  | Ok _ -> ()
  | Error e -> failwith ("seeding a knowledge store: " ^ e));
  match Knowledge.Segment.load scratch with
  | Ok r -> r.Knowledge.Segment.records
  | Error e -> failwith ("reading the seeded store: " ^ e)

let fix_kinds = [| Repairs.Rule.Replace; Repairs.Rule.Assert; Repairs.Rule.Modify |]

(* A sparse unit-normalised hashed block plus a dominant one-hot category
   component, the geometry Featvec.of_sketch produces (and the generator
   bench/main.ml's knn experiment uses). *)
let synthetic rng i =
  let kinds = Array.of_list Miri.Diag.all_kinds in
  let category = kinds.(i mod Array.length kinds) in
  let hash_dim = Knowledge.Featvec.hash_dim in
  let v = Array.make Knowledge.Featvec.dim 0.0 in
  for _ = 1 to 8 do
    v.(Rb_util.Rng.int rng hash_dim) <- 0.2 +. (1.4 *. Rb_util.Rng.float rng)
  done;
  let n = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 v) in
  if n > 0.0 then Array.iteri (fun j x -> if j < hash_dim then v.(j) <- x /. n) v;
  v.(hash_dim + Knowledge.Featvec.category_index category) <- 2.0;
  let entry =
    { Knowledge.Kb.category;
      advice = Printf.sprintf "synthetic entry %d" i;
      recommended = fix_kinds.(Rb_util.Rng.int rng (Array.length fix_kinds)) }
  in
  (v, Knowledge.Kb.entry_to_json entry)

let copy_file src dst =
  let s = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc s)

(* Build [<root>/<tenant>] for every tenant with identical content, so one
   in-process reference serves every tenant's jobs. *)
let build ~seed ~entries ~scratch ~root ~tenants =
  let seeds = seed_records ~scratch in
  Rb_util.Fsfile.mkdir_p root;
  let first = Filename.concat root (List.hd tenants) in
  let w =
    match
      Knowledge.Segment.open_writer
        ~expect:(Knowledge.Featvec.dim, Knowledge.Featvec.version) ~dir:first ()
    with
    | Ok (w, _) -> w
    | Error e -> failwith ("opening a slice: " ^ e)
  in
  let append vec payload =
    match Knowledge.Segment.append w ~vec ~payload with
    | Ok _ -> ()
    | Error e -> failwith ("appending to a slice: " ^ e)
  in
  List.iter (fun (r : Knowledge.Segment.record) -> append r.vec r.payload) seeds;
  let rng = Rb_util.Rng.create seed in
  for i = 0 to entries - 1 do
    let v, p = synthetic rng i in
    append v p
  done;
  Knowledge.Segment.close w;
  List.iter
    (fun t ->
      let d = Filename.concat root t in
      Rb_util.Fsfile.mkdir_p d;
      List.iter
        (fun f ->
          let src = Filename.concat first f in
          if f <> "LOCK" && not (Sys.is_directory src) then copy_file src (Filename.concat d f))
        (Common.list_dir first))
    (List.tl tenants);
  List.length seeds + entries
