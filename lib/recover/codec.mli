(** Fixed-width binary serialization for checkpoints.

    Resume must be bit-for-bit faithful, so this codec never loses width:
    integers and floats are stored as full 8-byte little-endian words
    (floats via [Int64.bits_of_float]), booleans and tags as single bytes,
    strings length-prefixed.  Readers validate as they go and raise
    {!Malformed} on any inconsistency — the checkpoint layer treats that
    exactly like a checksum failure (quarantine and fall back). *)

exception Malformed of string
(** Raised by all [read_*] functions on truncated or inconsistent input. *)

(** {1 CRC-32} *)

val crc32 : ?crc:int32 -> string -> pos:int -> len:int -> int32
(** IEEE 802.3 CRC-32 (polynomial [0xEDB88320]) of a substring; pass the
    previous value via [?crc] to checksum incrementally. *)

val crc32_string : string -> int32
(** [crc32_string s] is the CRC-32 of the whole string. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer
val contents : writer -> string
val u8 : writer -> int -> unit
val i64 : writer -> int64 -> unit
val int : writer -> int -> unit
val float : writer -> float -> unit
val bool : writer -> bool -> unit
val string : writer -> string -> unit
val option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val float_array : writer -> float array -> unit
val int_array : writer -> int array -> unit

(** {1 Reading} *)

type reader

val reader : string -> reader
val read_u8 : reader -> int
val read_i64 : reader -> int64
val read_int : reader -> int
val read_float : reader -> float
val read_bool : reader -> bool
val read_string : reader -> string
val read_option : reader -> (reader -> 'a) -> 'a option
val read_list : reader -> (reader -> 'a) -> 'a list
val read_float_array : reader -> float array
val read_int_array : reader -> int array
(** List and array readers reject a count the remaining input cannot hold
    before they allocate. *)

val valid : string -> ('a -> 'b) -> 'a -> 'b
(** [valid what make x] is [make x], with the [Invalid_argument] of a
    validating constructor such as [Asn.of_int] raised as {!Malformed}. *)

val pos : reader -> int
(** Bytes consumed so far. *)

val expect_end : reader -> unit
(** Raises {!Malformed} unless the reader consumed the whole input. *)
