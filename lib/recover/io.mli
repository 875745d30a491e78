(** Injectable I/O layer for durable writes.

    Every durable file write in the recovery path (checkpoint slots,
    reports, status documents) goes through this module, so the chaos
    harness can inject the disk's real failure modes — short writes,
    [ENOSPC], rename failure — at the exact boundary where they happen
    in production, without stubbing the filesystem.

    Faults surface the way the OS would surface them: as [Sys_error].
    A {!Short_write} is the nastiest case — the write {e appears} to
    succeed but the file lands truncated, which is precisely what the
    CRC-sealed envelope layer above exists to catch.

    The hook is process-wide (one atomic reference) and defaults to
    passthrough; production never pays more than one atomic load per
    write. *)

type op =
  | Write of string  (** Destination path of a write. *)
  | Rename of string * string
      (** [Rename (src, dst)].  No operation here reports it any more;
          hooks may still match it. *)

type fault =
  | Short_write of float
      (** Keep this fraction of the payload, then "succeed": the file
          lands torn for the checksum layer to quarantine. *)
  | Enospc  (** Fail before writing, as a full disk would. *)
  | Rename_fail
      (** Fail before writing, as a failed rename would: the destination
          is untouched. *)

val inject : (op -> fault option) -> unit
(** Install the process-wide fault hook ([None] = let the op through). *)

val clear : unit -> unit
(** Remove the hook (all I/O passes through again). *)

val with_faults : (op -> fault option) -> (unit -> 'a) -> 'a
(** Scoped {!inject}/{!clear} for tests.  Not reentrant. *)

val faults_injected : unit -> int
(** How many operations the hook has faulted so far (process-wide). *)

val write_file_atomic : dir:string -> file:string -> string -> unit
(** Write [data] to a temp file in [dir] and rename it to [file].
    A crash (or injected fault) mid-write never destroys an existing
    [file]; on error the temp file is removed.  Raises [Sys_error].

    The rename over an existing file waits for the old file's blocks to
    be freed, tens of milliseconds on a journalling filesystem, so only
    files that outside tools read live use it: the service's
    [status.json] and [metrics.prom] and the checkpoint [MANIFEST].
    Reports and checkpoint slots use {!overwrite}. *)

val overwrite : string -> string -> unit
(** [overwrite file data] writes [data] over [file] from offset 0, in
    place: no temp file, no rename, no truncating open; [file] is created
    if missing.  The length is then set to that of [data] ([ftruncate]),
    so [file] holds exactly [data]; this frees no disk blocks while the
    size stays within the file's last block.  A crash mid-write leaves
    old and new bytes mixed, so the reader must validate what it reads
    (checkpoint envelopes carry a CRC; reports are rebuilt at load).
    {!Enospc} and {!Rename_fail} raise before anything is written; a
    {!Short_write} leaves [file] holding exactly the torn prefix.  Raises
    [Sys_error], a failing [ftruncate] included. *)

val retry : (unit -> 'a) -> 'a
(** [retry f] runs [f] up to 3 times, waiting 2 ms and then 4 ms between
    attempts.  Only [Sys_error] is retried; any other exception, or the
    third [Sys_error], propagates.  Every durable write (checkpoints, the
    queue snapshot, reports, status documents, spool intake) goes through
    it. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; an existing directory is
    fine.  Not subject to injected faults.  Raises [Sys_error]. *)

val rm_rf : string -> unit
(** Remove a file, or a directory and everything under it; a missing path
    is fine.  Not subject to injected faults.  Raises [Sys_error]. *)
