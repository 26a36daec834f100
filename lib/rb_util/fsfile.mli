(** Crash-safe file output: write to a temporary sibling, fsync, atomic
    rename.

    A report file that a crash can leave half-written is worse than no file:
    downstream tooling reads a torn JSON array or a truncated CSV without
    noticing. Every file this repository produces therefore goes through
    [write_atomic]/[write_lines]: the content lands in [<path>.tmp.<pid>],
    is fsynced, and is renamed over [path] in one atomic step — a reader
    observes either the complete old file or the complete new one, never a
    mixture. The containing directory is fsynced after the rename so the
    new directory entry itself survives power loss. *)

val mkdir_p : string -> unit
(** Create the directory and any missing parents (mode 0o755); existing
    directories are fine. Each newly created directory's parent is fsynced
    ({!fsync_dir}) so the directory entry itself survives power loss — a
    journal or server state directory that exists in memory only is a
    durability lie. *)

val fsync_dir : string -> unit
(** Flush a directory's entry table to stable storage. A filesystem that
    cannot fsync a directory fd answers EINVAL, which is ignored; every
    other [Unix_error] (the open included) is raised, since the entry may
    not be durable. Called automatically after every
    {!write_atomic}/{!write_channel} rename and by {!mkdir_p}; exposed for
    callers that rename files themselves. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] durably replaces [path] with [contents]. *)

val write_channel : string -> (out_channel -> unit) -> unit
(** [write_channel path emit] like {!write_atomic} but streams through an
    [out_channel], so a large report never has to be concatenated in
    memory; [emit] writes the content, the helper fsyncs and renames. If
    [emit], the flush, the file fsync, the close or the rename raises,
    the temporary file is removed, [path] is untouched and the exception
    propagates. *)

val read : string -> string option
(** Whole-file read; [None] when the file does not exist or is unreadable. *)

val remove_if_exists : string -> unit

(** {2 Checksummed records}

    Small durable state records (the repair server's admission queue and
    markers) are wrapped in a one-line header — magic+version, payload
    length, payload CRC-32 — so a later fsck can tell an intact record
    from a torn tail from a bit flip instead of feeding rotted bytes to a
    JSON parser and hoping. Every writer uses the header, so bytes
    without one are [Corrupt]. *)

type checked =
  | Intact of string   (** header present; length and CRC both verify *)
  | Healed of string
      (** declared prefix verifies; junk bytes after it were dropped *)
  | Torn               (** payload shorter than the header declares *)
  | Corrupt of string
      (** no header, an unparseable one, or a full-length payload failing
          its CRC (reason) *)
  | Missing            (** file absent or unreadable *)

val write_checked : string -> string -> unit
(** [write_checked path payload] durably writes [payload] under a
    [%RB1 <len> <crc32>] header (atomic, fsynced like {!write_atomic}). *)

val read_checked : string -> checked
(** Read and classify; never raises. *)

val checked_payload : checked -> string option
(** The usable payload of [Intact]/[Healed]; [None] otherwise. *)
