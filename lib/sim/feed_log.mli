(** Streaming collector-feed log: bounded in-memory buffers that spill to a
    compact binary on-disk log, so monitored-feed state stays O(buffer)
    instead of O(observations) at Internet scale.

    The on-disk format reuses {!Because_recover.Codec} framing: each flush
    appends one self-delimiting block (length-prefixed payload + CRC-32), so
    torn tails are detected.  Floats round-trip exactly; a feed replayed
    from disk is bit-for-bit the feed that was recorded. *)

open Because_bgp

(** {1 Spill configuration} *)

type spill = {
  dir : string;  (** directory the per-vantage [feed-<asn>.log] files live in *)
  buffer : int;  (** updates buffered in memory before a flush to disk *)
}

val default_buffer : int
(** Default in-memory buffer size (4096 updates per vantage). *)

(** {1 Writer} *)

type writer
(** Append-only log for one vantage point's feed.  The underlying file is
    only open during a flush, so holding hundreds of writers does not
    consume hundreds of file descriptors. *)

val writer : dir:string -> asn:Asn.t -> buffer:int -> writer
(** [writer ~dir ~asn ~buffer] creates (and truncates any stale log at) the
    per-vantage path [dir/feed-<asn>.log], creating [dir] as needed. *)

val append : writer -> time:float -> Update.t -> unit
(** Buffer one observation; flushes automatically when the buffer fills. *)

val flush : writer -> string
(** Force any buffered entries to disk and return the log's path.  A feed
    with no observations may have no file at all; {!entries} and {!iter}
    treat a missing file as an empty feed. *)

val path : writer -> string

(** {1 Reader} *)

val iter : string -> (float -> Update.t -> unit) -> unit
(** [iter path f] streams the log in recorded order, holding one flushed
    block in memory at a time.  Raises {!Because_recover.Codec.Malformed}
    on a torn or corrupted block. *)

val entries : string -> (float * Update.t) list
(** Materialize a log in recorded order ([] if the file does not exist). *)

(** {1 Wire codecs}

    Shared with the checkpoint layer ({!Because_scenario.Recovery}) so an
    update has exactly one durable encoding. *)

val w_asn : Because_recover.Codec.writer -> Asn.t -> unit
val r_asn : Because_recover.Codec.reader -> Asn.t
val w_update : Because_recover.Codec.writer -> Update.t -> unit
val r_update : Because_recover.Codec.reader -> Update.t
