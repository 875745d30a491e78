(** Durable, self-checking checkpoint store.

    A store is a directory of independent snapshots, one per [key]
    (a sim shard, an MCMC chain, the campaign summary).  Each file is a
    versioned envelope — magic, format version, key, payload — closed by a
    CRC-32 of everything before it, so corruption of any kind (torn write,
    bit flip, truncation, wrong file) is detected before a single payload
    byte is trusted.

    Durability protocol per {!save}: write to a temp file, rotate the
    current snapshot to [<key>.prev.ck], then atomically rename the temp
    file to [<key>.ck].  {!load} tries [<key>.ck] first; a file that fails
    validation is renamed to a unique [*.corrupt-N] quarantine name (kept
    for post-mortem, never retried) and the previous snapshot is used
    instead, with a recorded warning — never a crash, never a silent wrong
    answer.

    The directory's [MANIFEST] pins the campaign fingerprint; opening a
    store whose manifest names a different fingerprint quarantines the
    stale snapshots rather than resuming from a mismatched run.

    All operations are mutex-guarded and safe to call from multiple
    domains (the work-stealing pool checkpoints chains concurrently). *)

type t

val open_ : dir:string -> fingerprint:string -> unit -> t
(** [open_ ~dir ~fingerprint] opens (creating if needed) the store at
    [dir].  If the directory already holds snapshots for a different
    fingerprint, or a corrupt manifest, those snapshots are quarantined
    and a warning recorded.  Raises [Invalid_argument] if [dir] exists
    but is not a directory. *)

val save : t -> key:string -> string -> unit
(** [save t ~key payload] durably replaces the snapshot for [key]
    (atomic rename; previous snapshot kept as fallback).  All file
    writes go through {!Io}; a transient [Sys_error] is retried by
    {!Io.retry}, and a save whose third attempt fails raises. *)

val load : t -> key:string -> string option
(** [load t ~key] returns the newest valid snapshot payload for [key],
    falling back to the previous snapshot (with a warning) when the
    current one fails its checksum, and [None] when no valid snapshot
    exists. *)

val load_decoded : t -> key:string -> (string -> 'a) -> 'a option
(** {!load} through a payload decoder.  A payload that passes the checksum
    but that [decode] rejects with {!Codec.Malformed} is quarantined and
    falls back exactly like a checksum failure. *)

val dir : t -> string
val fingerprint : t -> string

val warnings : t -> string list
(** Recovery warnings recorded so far, oldest first (corruption,
    quarantine, fingerprint mismatch).  These are operational notes about
    *this process's* recovery — they are deliberately kept out of campaign
    outcomes so a resumed run stays bit-for-bit equal to a clean one. *)

val saves : t -> int
val restores : t -> int

val fallbacks : t -> int
(** Number of snapshot files that failed validation and were quarantined. *)
