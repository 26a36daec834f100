(** Persistent, append-only, compacting segment store for feature-vector
    records.

    On-disk layout of a store directory:
    - [META] — store header ([Rb_util.Fsfile.write_checked]): magic,
      vector dimension and {!Featvec} version every record must match;
    - [seg-NNNNNNNN.seg] — sealed segments, each a whole-file
      CRC-checked batch (tmp → fsync → atomic rename) of JSONL records;
    - [tail.log] — the active append log: one length+CRC framed record
      per append, fsynced, so a kill -9 can only tear the final frame;
    - [LOCK] — single-writer lock (pid-stamped, [lockf]);
    - [quarantined/] — set-aside data: whole corrupt segments under
      [corrupt/], dimension/version-mismatched records in
      [records.jsonl]. Quarantine preserves bytes; it never deletes.

    Records carry dense monotonic ids. Every mutation is crash-safe by
    construction: appends are single framed writes (a torn tail heals to
    the last whole frame), sealing writes the new segment {e before}
    removing the tail, and compaction writes the merged segment before
    deleting its inputs — any crash point leaves a directory whose load
    is a consistent prefix of the writes, with duplicates resolved by id
    (first wins). Loading never raises on damage and never loses bytes:
    damage is healed, quarantined, or skipped, and counted. *)

type record = {
  id : int;               (** dense, monotonic, unique after dedupe *)
  fv : int;               (** featurization version stamp *)
  vec : float array;
  payload : Rb_util.Json.t;
}

type load_report = {
  records : record list;  (** live records, id ascending *)
  segments : int;         (** sealed segments contributing records *)
  tail_records : int;     (** records recovered from the tail log *)
  healed_tail_bytes : int;(** bytes dropped after the last whole frame *)
  corrupt_segments : int; (** segments set aside (or skipped, read-only) *)
  mismatched : int;       (** records quarantined for a dim/version clash *)
  duplicates : int;       (** records dropped by id-dedupe *)
}

val load : ?expect:int * int -> string -> (load_report, string) result
(** Read-only load: parse META (or adopt [expect] = (dim, featvec
    version) when META is missing), classify every segment and the tail,
    and return the consistent record set. Never writes; damage beyond the
    healed prefix is skipped and counted. [Error] when the directory does
    not exist or META disagrees with [expect]. *)

type writer

val open_writer :
  ?expect:int * int ->
  ?seal_every:int ->
  ?compact_at:int ->
  dir:string ->
  unit ->
  (writer * load_report, string) result
(** Open (creating if missing) for appending: take the writer lock, run
    the {!load} scrub in fixing mode — truncate the torn tail bytes, move
    corrupt segments to quarantine, persist mismatched records there —
    and position the id counter after the highest live id. [seal_every]
    (default 256) rolls the tail into a sealed segment; [compact_at]
    (default 8) merges all sealed segments into one when their count
    reaches it. [Error] if another writer holds the lock. *)

val append : writer -> vec:float array -> payload:Rb_util.Json.t -> (int, string) result
(** Durably append one record (framed write + fsync); returns its id.
    Sealing/compaction thresholds are applied after the append. A vector
    whose dimension disagrees with META is quarantined and reported as
    [Error] — the store never accepts it. *)

val records : writer -> record list
(** Live records, id ascending, reflecting every append so far. *)

val seal : writer -> unit
(** Roll the tail log (if non-empty) into a sealed segment now. *)

val compact : writer -> unit
(** [seal], then merge every sealed segment into a single fresh segment
    and delete the inputs. Load-equivalent before and after. *)

val close : writer -> unit
(** Seal and release the lock. The writer must not be used afterwards. *)

val fsck : ?fix:bool -> ?expect:int * int -> string -> (load_report, string) result
(** The startup scrub as a standalone check. [fix = false] (default)
    classifies only; [fix = true] additionally truncates torn tails and
    quarantines corrupt segments / mismatched records (requires the
    writer lock to be free). *)
