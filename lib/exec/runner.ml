type stats = {
  cache_hits : int;
  cache_misses : int;
  restarts : int;
  orphaned_jobs : int;
}

let no_stats = { cache_hits = 0; cache_misses = 0; restarts = 0; orphaned_jobs = 0 }

let add_stats a b =
  { cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    restarts = a.restarts + b.restarts;
    orphaned_jobs = a.orphaned_jobs + b.orphaned_jobs }

let hit_rate s =
  let total = s.cache_hits + s.cache_misses in
  if total = 0 then 0.0 else float_of_int s.cache_hits /. float_of_int total

module type S = sig
  type config
  type session

  val name : string
  val default_config : config
  val with_seed : config -> int -> config
  val seed : config -> int
  val create_session : config -> session
  val repair_case : session -> Dataset.Case.t -> Rustbrain.Report.t
  val session_stats : session -> stats
  val resumable : session -> bool
end

type packed = Packed : (module S with type config = 'c) * 'c -> packed

let pack (type c) (m : (module S with type config = c)) (cfg : c) = Packed (m, cfg)

let name (Packed ((module M), _)) = M.name

let seed (Packed ((module M), cfg)) = M.seed cfg

let with_seed (Packed ((module M), cfg)) seed = Packed ((module M), M.with_seed cfg seed)

(* Configs are plain data (model tags, floats, flags), so their marshaled
   bytes are a stable function of the value within one build — exactly the
   scope a resumable journal is valid for. [Closures] is defensive: a
   config that does carry a closure still fingerprints, and the code-version
   component of the manifest keeps it honest across builds. *)
let fingerprint (Packed ((module M), cfg)) =
  Digest.to_hex
    (Digest.string (M.name ^ "\x00" ^ Marshal.to_string cfg [ Marshal.Closures ]))

type running =
  | Running :
      (module S with type config = 'c and type session = 's) * 's
      -> running

let start (Packed ((module M), cfg)) = Running ((module M), M.create_session cfg)

let step (Running ((module M), session)) case = M.repair_case session case

let running_stats (Running ((module M), session)) = M.session_stats session

let snapshot (Running ((module M), session)) =
  Marshal.to_string session [ Marshal.Closures ]

(* Every start unmarshals afresh, so a job the scheduler runs again (its
   domain died) never continues a session another attempt already used. *)
let resume (Packed ((module M), cfg)) bytes =
  let restored () : M.session = Marshal.from_string bytes 0 in
  if not (M.resumable (restored ())) then None
  else
    let module W = struct
      include M

      let create_session _ = restored ()
    end in
    Some (Packed ((module W), cfg))

let instrumented (Packed ((module M), cfg)) ~observe =
  let module W = struct
    include M

    let repair_case s case =
      let report = M.repair_case s case in
      observe case report (M.session_stats s)
        ~snapshot:(lazy (Marshal.to_string s [ Marshal.Closures ]));
      report
  end in
  Packed ((module W), cfg)

exception Aborted of string

let guarded (Packed ((module M), cfg)) ~before =
  let module W = struct
    include M

    let repair_case s case =
      before case;
      M.repair_case s case
  end in
  Packed ((module W), cfg)

let run packed cases =
  let running = start packed in
  let reports = List.map (step running) cases in
  (reports, running_stats running)
