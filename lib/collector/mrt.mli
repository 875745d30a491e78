(** MRT export of dump records (RFC 6396).

    Route collectors publish their feeds as MRT files; this module writes
    {!Dump.record}s as BGP4MP_ET records (MRT type 17, subtype
    BGP4MP_MESSAGE_AS4) wrapping RFC 4271 UPDATE messages encoded by
    {!Because_bgp.Wire}, and reads them back.  The mapping:

    - the MRT extended timestamp carries [export_at] (seconds +
      microseconds);
    - the peer AS is the vantage point's host AS;
    - the peer IP field carries the vantage-point id, the local IP field the
      collector project (1 = RIS, 2 = RouteViews, 3 = Isolario);
    - [received_at] is not representable in MRT and is restored as
      [export_at] on read. *)

val encode_records : Dump.record list -> bytes
val decode_records : bytes -> (Dump.record list, string) result

val write_file : string -> Dump.record list -> unit
(** Raises [Sys_error] on I/O failure. *)

val read_file : string -> (Dump.record list, string) result
(** [Error] on a malformed dump or an unreadable file (the I/O error,
    see {!io_error}). *)

val io_error : string -> string -> string
(** [io_error path msg] is the message of a [Sys_error] raised on
    [path] without its leading ["path: "], so a caller that names the
    file itself names it once.  Every file reader that returns the I/O
    error as [Error] goes through it. *)
