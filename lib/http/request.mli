(** Hardened HTTP/1.1 request parser.

    Pure and incremental: {!parse} inspects a byte buffer at an offset and
    either yields a complete request plus the number of bytes it consumed
    (so pipelined requests parse back to back from one buffer), asks for
    more bytes, or rejects the stream with a typed error.  It never raises
    on any input — the server's fuzz suite feeds it arbitrary garbage and
    arbitrary split points.

    Limits are explicit and enforced before anything is copied: an
    attacker-controlled Content-Length or an unbounded header block is
    refused as soon as the declared (not received) size crosses the cap,
    so a slow or hostile client cannot make the server buffer without
    bound. *)

type t = {
  meth : string;                      (** Verb, as sent (e.g. [GET]). *)
  target : string;                    (** Raw request target. *)
  path : string;                      (** Percent-decoded path, no query. *)
  query : (string * string) list;     (** Decoded query pairs, in order. *)
  version : string;                   (** [HTTP/1.0] or [HTTP/1.1]. *)
  headers : (string * string) list;   (** Names lowercased, values trimmed. *)
  body : string;
  deadline : float option;
      (** Absolute wall-clock deadline (epoch seconds) by which the
          response should be written.  The parser always leaves it
          [None]; the server stamps it — armed when the request's first
          byte arrives — before dispatch, so handlers can bound their
          own waits ({!remaining_s}) and the deadline propagates from
          accept to response. *)
}

type error =
  | Bad_request of string   (** Malformed request line, header or framing. *)
  | Too_large of string     (** Declared or received size over a limit. *)

val error_status : error -> int
(** The response status an error maps to: 400 or 413. *)

val error_message : error -> string

type limits = {
  max_head : int;  (** Request line + headers, bytes (default 8192). *)
  max_body : int;  (** Entity body, bytes (default 65536). *)
}

val default_limits : limits

val parse :
  ?limits:limits ->
  string ->
  pos:int ->
  [ `Ok of t * int | `More | `Error of error ]
(** [parse buf ~pos] parses one request starting at [pos].  [`Ok (req, n)]
    consumed bytes [pos .. n-1]; parsing of a pipelined successor restarts
    at [n].  [`More] means the bytes so far are a valid prefix — read more.
    Never raises. *)

val header : t -> string -> string option
(** Case-insensitive header lookup (names are stored lowercased). *)

val keep_alive : t -> bool
(** Whether the connection should persist after this request: HTTP/1.1
    unless [Connection: close], HTTP/1.0 only with
    [Connection: keep-alive]. *)

val query_param : t -> string -> string option

val remaining_s : t -> float option
(** Seconds left until the request's deadline ([None] when unstamped);
    negative once the deadline has passed. *)

val percent_decode : string -> string
(** Decode [%XX] escapes and [+]-as-space; invalid escapes pass through
    literally rather than failing. *)
