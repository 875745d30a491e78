(** Injectable I/O layer for durable writes.

    Every atomic file write in the recovery path (checkpoint snapshots,
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
  | Write of string  (** Destination path of an atomic write. *)
  | Rename of string * string  (** [Rename (src, dst)]. *)

type fault =
  | Short_write of float
      (** Keep this fraction of the payload, then "succeed": the rename
          lands a torn file for the checksum layer to quarantine. *)
  | Enospc  (** Fail before writing, as a full disk would. *)
  | Rename_fail  (** Write the temp file, then fail the rename. *)

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
    [file]; on error the temp file is removed.  Raises [Sys_error]. *)

val retry : (unit -> 'a) -> 'a
(** [retry f] runs [f] up to 3 times, waiting 2 ms and then 4 ms between
    attempts.  Only [Sys_error] is retried; any other exception, or the
    third [Sys_error], propagates.  Every durable write (checkpoints, the
    queue snapshot, reports, status documents, spool intake) goes through
    it. *)

val rename : string -> string -> unit
(** [rename src dst], subject to injected faults.  A faulted rename
    raises [Sys_error] and leaves [src] in place. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; an existing directory is
    fine.  Not subject to injected faults.  Raises [Sys_error]. *)

val rm_rf : string -> unit
(** Remove a file, or a directory and everything under it; a missing path
    is fine.  Not subject to injected faults.  Raises [Sys_error]. *)
