module Json = Rb_util.Json

type entry = {
  category : Miri.Diag.ub_kind;
  advice : string;
  recommended : Repairs.Rule.fix_kind;
}

(* Marshal-safety invariant: sessions snapshot their whole state with
   [Marshal], so [t] holds only plain data. A persistent KB holds a
   reference to its frozen rows, not the rows: the store directory, the
   high-water id below which the rows were frozen, and a digest of those
   rows. The rows (as a query store) and the writer a learn appends
   through (lock fd, tail fd) live in the process-global registry below,
   resolved on every query and learn. A session snapshot therefore costs
   kilobytes whatever the slice's size, and a session restored in another
   process resolves the same reference there — or finds, through the
   digest, that the rows it named are gone. *)
type slice_ref = {
  dir : string;
  readonly : bool;
  high_water : int;  (* the frozen rows are those with smaller ids *)
  digest : string;   (* of the frozen rows; see [add_row_digest] *)
}

type backing = In_memory of entry Store.t | Persistent of slice_ref

type t = {
  backing : backing;
  clock : Rb_util.Simclock.t;
  q_base : int;  (* rows refused when the persistent rows were loaded *)
}

let create ~clock () = { backing = In_memory (Store.create ()); clock; q_base = 0 }

(* -- entry codec -------------------------------------------------------- *)

let all_fix_kinds = [ Repairs.Rule.Replace; Repairs.Rule.Assert; Repairs.Rule.Modify ]

let entry_to_json e =
  Json.Obj
    [ ("cat", Json.Str (Miri.Diag.kind_name e.category));
      ("advice", Json.Str e.advice);
      ("fix", Json.Str (Repairs.Rule.fix_kind_name e.recommended)) ]

let entry_of_json j =
  match
    ( Option.bind (Json.member "cat" j) Json.to_str,
      Option.bind (Json.member "advice" j) Json.to_str,
      Option.bind (Json.member "fix" j) Json.to_str )
  with
  | Some cat, Some advice, Some fix -> (
    match
      ( List.find_opt (fun k -> Miri.Diag.kind_name k = cat) Miri.Diag.all_kinds,
        List.find_opt (fun k -> Repairs.Rule.fix_kind_name k = fix) all_fix_kinds )
    with
    | Some category, Some recommended -> Some { category; advice; recommended }
    | _ -> None)
  | _ -> None

(* -- seeding ------------------------------------------------------------ *)

(* Build a representative sketch vector for a category from a tiny canonical
   program exhibiting it; the one-hot category block dominates matching, the
   hashed block adds structure sensitivity. *)
let seed_vec category =
  let sk = { Prune.kept_stmts = []; kept_fns = []; dropped = 0 } in
  Featvec.of_sketch sk (Some category)

let default_entries =
  [ (Miri.Diag.Stack_borrow,
     "a reference created after the raw pointer invalidated its tag; re-derive the \
      pointer or access the place directly", Repairs.Rule.Replace);
    (Miri.Diag.Unaligned_pointer,
     "the pointer's address is not a multiple of the access alignment; round the \
      offset or raise the allocation's alignment", Repairs.Rule.Modify);
    (Miri.Diag.Validity,
     "an invalid value was produced (uninitialized read or bad bool); initialize \
      the memory or derive the value with a comparison", Repairs.Rule.Modify);
    (Miri.Diag.Alloc,
     "allocation misuse: free exactly once, with the allocated layout, and free \
      everything before exit", Repairs.Rule.Modify);
    (Miri.Diag.Func_pointer,
     "the fn pointer's claimed signature disagrees with the callee; fix the \
      transmute target or call the item directly", Repairs.Rule.Modify);
    (Miri.Diag.Provenance,
     "an integer-derived pointer has no provenance; derive it from the original \
      place or expose the address first", Repairs.Rule.Replace);
    (Miri.Diag.Panic_bug,
     "a reachable panic: guard the failing operation or repair the arithmetic", Repairs.Rule.Modify);
    (Miri.Diag.Func_call,
     "the callee is not a function; route the call through the intended item", Repairs.Rule.Modify);
    (Miri.Diag.Dangling_pointer,
     "the pointee is dead or out of bounds; use checked indexing or extend the \
      pointee's lifetime", Repairs.Rule.Replace);
    (Miri.Diag.Both_borrow,
     "a shared reference was used after a conflicting mutable borrow; reorder the \
      uses or drop one borrow", Repairs.Rule.Modify);
    (Miri.Diag.Concurrency,
     "a thread was leaked or joined twice; join every spawned handle exactly once", Repairs.Rule.Modify);
    (Miri.Diag.Data_race,
     "unsynchronized conflicting accesses; join before accessing or make the \
      accesses atomic", Repairs.Rule.Replace) ]

(* -- persistent store registry ------------------------------------------ *)

(* One writer per directory per process. lockf record locks are per-process
   (a second fd in the same process would silently "win"), so in-process
   dedupe here plus the on-disk lock for cross-process exclusion together
   give true single-writer semantics. Writers live until process exit; the
   tail log is fsynced per append, so there is nothing to flush.

   The rows a fresh open sees are read once per (process, directory) — NOT
   re-read per open. Every session a process opens on the same store
   retrieves from identical content, whatever has been learned meanwhile,
   which is what makes campaigns independent of session-creation order:
   sequential and domain-parallel schedules, and multi-seed sweeps, see the
   same KB and produce byte-identical reports. New content is visible to
   the next process (the next CLI invocation, the next worker). *)
type slice = {
  writer : Segment.writer option;  (* None = read-only open *)
  rows : Segment.record list;      (* what fresh opens see, id ascending *)
  quarantined : int;               (* load-time skips (read-only path) *)
}

(* The query store over the rows below one high-water id: built once per
   (process, directory, high-water id), frozen, and shared read-only by
   every session whose reference names it. *)
type frozen = { store : entry Store.t; digest : string; undecodable : int }

let slices : (string, slice) Hashtbl.t = Hashtbl.create 7
let frozen_views : (string * int, frozen) Hashtbl.t = Hashtbl.create 7
let registry_mu = Mutex.create ()

let expect_stamp = (Featvec.dim, Featvec.version)

let with_registry f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

(* Assumes [registry_mu] is held: every writer touch — open, seed, append —
   happens under the one mutex, because Segment writers are not themselves
   thread-safe and a [--domains N] campaign runs sessions on several
   domains against the same store. A read-only entry is upgraded in place
   (a writer is attached) when a writable open or a learn needs one; its
   rows are never replaced. *)
let locked_slice ~want_writer dir =
  let current = Hashtbl.find_opt slices dir in
  match current with
  | Some sl when (not want_writer) || Option.is_some sl.writer -> Ok sl
  | _ ->
    if want_writer then (
      match Segment.open_writer ~expect:expect_stamp ~dir () with
      | Error e -> Error e
      | Ok (w, _report) ->
        if Segment.records w = [] then
          List.iter
            (fun (category, advice, recommended) ->
              let e = { category; advice; recommended } in
              match
                Segment.append w ~vec:(seed_vec category)
                  ~payload:(entry_to_json e)
              with
              | Ok _ -> ()
              | Error msg -> failwith ("Kb: seeding failed: " ^ msg))
            default_entries;
        let sl =
          match current with
          | Some sl -> { sl with writer = Some w }
          | None -> { writer = Some w; rows = Segment.records w; quarantined = 0 }
        in
        Hashtbl.replace slices dir sl;
        Ok sl)
    else (
      match Segment.load ~expect:expect_stamp dir with
      | Error e -> Error e
      | Ok r ->
        let sl =
          { writer = None;
            rows = r.records;
            quarantined = r.mismatched + r.corrupt_segments }
        in
        Hashtbl.replace slices dir sl;
        Ok sl)

let append_dir dir vec payload =
  with_registry (fun () ->
      match locked_slice ~want_writer:true dir with
      | Error _ -> ()  (* the store went unwritable mid-session: drop *)
      | Ok { writer = Some w; _ } -> ignore (Segment.append w ~vec ~payload)
      | Ok { writer = None; _ } -> ())

let high_water rows =
  List.fold_left (fun _ (r : Segment.record) -> r.Segment.id + 1) 0 rows

(* The digest input of one row: id, vector and payload, so replacing,
   dropping, inserting or reordering any row changes the digest of the
   rows. A vector is its length and the (index, bits) of each non-zero
   component — exact, and a fraction of the dense bytes for Featvec's
   sparse vectors; a payload is the entry it decodes to (what queries
   return), or its JSON text when it decodes to none. *)
let add_row_digest b (r : Segment.record) entry =
  let add_str s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  let v = r.Segment.vec in
  Buffer.add_int64_le b (Int64.of_int r.Segment.id);
  Buffer.add_uint16_le b (Array.length v);
  (* a loop, not Array.iteri: the closure would box every component *)
  for i = 0 to Array.length v - 1 do
    let x = v.(i) in
    if x <> 0.0 || Float.sign_bit x then begin
      Buffer.add_uint16_le b i;
      Buffer.add_int64_le b (Int64.bits_of_float x)
    end
  done;
  Buffer.add_uint16_le b 0xffff;
  match entry with
  | Some e ->
    add_str (Miri.Diag.kind_name e.category);
    add_str e.advice;
    add_str (Repairs.Rule.fix_kind_name e.recommended)
  | None -> add_str (Json.to_string r.Segment.payload)

(* Assumes [registry_mu] is held. [rows] must hold every row below
   [high_water] that the directory holds. *)
let locked_frozen dir high_water rows =
  match Hashtbl.find_opt frozen_views (dir, high_water) with
  | Some fz -> fz
  | None ->
    let store = Store.create ~dim:Featvec.dim () in
    let b = Buffer.create (1 lsl 16) in
    let undecodable = ref 0 in
    List.iter
      (fun (r : Segment.record) ->
        if r.Segment.id < high_water then begin
          let entry = entry_of_json r.Segment.payload in
          add_row_digest b r entry;
          match entry with
          | Some e -> Store.add store r.Segment.vec e
          | None -> incr undecodable
        end)
      rows;
    let digest = Digest.to_hex (Digest.string (Buffer.contents b)) in
    let fz = { store; digest; undecodable = !undecodable } in
    Hashtbl.replace frozen_views (dir, high_water) fz;
    fz

(* The frozen view a reference names, in this process. A reference from a
   restored session may predate this process's rows for the directory
   (they were read before the slice grew to its high-water id), and then
   the directory is read again. *)
let resolve r =
  with_registry (fun () ->
      match Hashtbl.find_opt frozen_views (r.dir, r.high_water) with
      | Some fz -> Ok fz
      | None -> (
        match locked_slice ~want_writer:false r.dir with
        | Error e -> Error e
        | Ok sl ->
          let rows =
            if high_water sl.rows >= r.high_water then Ok sl.rows
            else
              match sl.writer with
              | Some w -> Ok (Segment.records w)
              | None ->
                Result.map
                  (fun (l : Segment.load_report) -> l.Segment.records)
                  (Segment.load ~expect:expect_stamp r.dir)
          in
          Result.map (locked_frozen r.dir r.high_water) rows))

let resolves t =
  match t.backing with
  | In_memory _ -> true
  | Persistent r -> (
    match resolve r with Ok fz -> fz.digest = r.digest | Error _ -> false)

(* the store queries read; a reference that no longer resolves to its rows
   is refused, never queried against other rows *)
let view t =
  match t.backing with
  | In_memory store -> store
  | Persistent r -> (
    match resolve r with
    | Ok fz when fz.digest = r.digest -> fz.store
    | Ok _ ->
      failwith
        (Printf.sprintf "Kb: the rows of %s below id %d changed since they were frozen"
           r.dir r.high_water)
    | Error e -> failwith (Printf.sprintf "Kb: %s: %s" r.dir e))

let size t = Store.size (view t)
let quarantined t = t.q_base + Store.quarantined (view t)

let persistent_dir t =
  match t.backing with Persistent r -> Some r.dir | In_memory _ -> None

(* -- construction ------------------------------------------------------- *)

let learn t vec entry =
  match t.backing with
  | In_memory store -> Store.add store vec entry
  | Persistent { readonly = true; _ } -> ()  (* frozen and unwritable: drop *)
  | Persistent { dir; _ } ->
    (* durably appended for future sessions; the frozen rows stay as they
       were so seeded campaigns remain deterministic *)
    append_dir dir vec (entry_to_json entry)

let seed_default t =
  match t.backing with
  | Persistent _ -> ()  (* persistent stores are seeded once, at creation *)
  | In_memory _ ->
    List.iter
      (fun (category, advice, recommended) ->
        learn t (seed_vec category) { category; advice; recommended })
      default_entries

let open_dir ?(readonly = false) ~dir ~clock () =
  with_registry (fun () ->
      Result.map
        (fun sl ->
          let high_water = high_water sl.rows in
          let fz = locked_frozen dir high_water sl.rows in
          { backing = Persistent { dir; readonly; high_water; digest = fz.digest };
            clock;
            q_base = sl.quarantined + fz.undecodable })
        (locked_slice ~want_writer:(not readonly) dir))

(* -- retrieval ---------------------------------------------------------- *)

let max_hits = 8
let hit_threshold = 0.35

(* simulated seconds per lookup, plus per row of the store: the paper
   reports KB overhead growing with the knowledge base, and every query
   scores every row *)
let query_cost = 3.0
let row_cost = 0.05

let query t vec =
  let store = view t in
  let hits =
    Store.search store vec ~k:max_hits
    |> List.filter (fun (s, _, _) -> s > hit_threshold)
    |> List.map (fun (s, _, e) -> (s, e))
  in
  Rb_util.Simclock.charge t.clock
    (query_cost +. (row_cost *. float_of_int (Store.size store)));
  hits

let hints_text hits =
  String.concat "\n"
    (List.map
       (fun (score, e) ->
         Printf.sprintf "- [%s, sim %.2f] %s (recommended: %s)"
           (Miri.Diag.kind_name e.category) score e.advice
           (Repairs.Rule.fix_kind_name e.recommended))
       hits)

(* Canonical order: fix_kind declaration order, hit contributions summed in
   hit order (best first), zero-contribution classes dropped — the old
   remove_assoc + cons rebuild surfaced keys by last-touched, leaking
   retrieval order into downstream rule choice. *)
let kind_bias hits =
  List.filter_map
    (fun kind ->
      if not (List.exists (fun (_, e) -> e.recommended = kind) hits) then None
      else
        Some
          ( Repairs.Rule.fix_kind_name kind,
            List.fold_left
              (fun acc (score, e) ->
                if e.recommended = kind then acc +. (0.08 *. score) else acc)
              0.0 hits ))
    all_fix_kinds
