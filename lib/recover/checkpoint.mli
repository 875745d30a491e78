(** Durable, self-checking checkpoint store.

    A store is a directory of independent snapshots, one per [key]
    (a sim shard, an MCMC chain, the campaign summary).  Each key has two
    fixed slot files, [<key>.ck] and [<key>.prev.ck].  {!save} overwrites,
    in place, the slot that does not hold the newest snapshot, under a
    sequence number one past the newest: no temp file, no rename, no
    truncating open ({!Io.overwrite}).  The other slot keeps the previous
    snapshot.

    Each slot holds a self-delimiting envelope — magic, format version,
    key, sequence number, payload — closed by a CRC-32 of everything before
    it, read at the parsed end.  Stale bytes past a shorter snapshot are
    ignored, and corruption of any kind (torn write, bit flip, truncation,
    wrong file) is detected before a single payload byte is trusted.  A
    version-1 envelope (no sequence number, as stores written before slots
    hold in both files) reads as sequence 0, a tie going to [<key>.ck].

    {!load} reads both slots and takes the highest-sequence one that
    validates.  A slot that fails is renamed to a unique [*.corrupt-N]
    quarantine name (kept for post-mortem, never retried), counted and
    warned about once, and the other slot is used instead — never a crash,
    never a silent wrong answer.  Snapshots survive process death; nothing
    here calls [fsync].

    The directory's [MANIFEST] pins the campaign fingerprint; it is written
    only when missing.  Opening a store whose manifest names a different
    fingerprint quarantines the stale snapshots rather than resuming from a
    mismatched run.

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
(** [save t ~key payload] writes the newest snapshot for [key] over its
    older slot, in place; the previous snapshot stays in the other slot.
    The write goes through {!Io.overwrite}; a transient [Sys_error] is
    retried by {!Io.retry}, and a save whose third attempt fails raises. *)

val load : t -> key:string -> string option
(** [load t ~key] returns the payload of [key]'s highest-sequence slot
    that passes its checksum, falling back to the other slot (with one
    warning per failed slot), and [None] when no valid snapshot exists. *)

val load_decoded : t -> key:string -> (string -> 'a) -> 'a option
(** {!load} through a payload decoder.  A payload that passes the checksum
    but that [decode] rejects with {!Codec.Malformed} is quarantined and
    falls back exactly like a checksum failure. *)

val warnings : t -> string list
(** Recovery warnings recorded so far, oldest first (corruption,
    quarantine, fingerprint mismatch).  These are operational notes about
    *this process's* recovery — they are deliberately kept out of campaign
    outcomes so a resumed run stays bit-for-bit equal to a clean one. *)

val saves : t -> int
val restores : t -> int

val fallbacks : t -> int
(** Number of slot files that failed validation and were quarantined. *)
