(** Immutable view of a {!Registry} at one instant, shards merged.

    Counters sum over shards; gauges sum the per-shard values (each shard
    sets its own cell, so for per-shard quantities the sum is the process
    total); histogram buckets add elementwise — an exactly associative and
    commutative merge, so the result is independent of shard order. *)

val n_buckets : int
(** Buckets per histogram (64): power-of-two widths spanning 2^-16 .. 2^47,
    with the bottom and top buckets absorbing under- and overflow. *)

val bucket_of : float -> int
(** Log2 bucket index of an observation; non-positive values land in
    bucket 0. *)

val bucket_upper : int -> float
(** Exclusive upper edge of a bucket; [infinity] for the top bucket. *)

type hist = { buckets : int array; count : int; sum : float }

val hist_of_buckets : int array -> sum:float -> hist
val merge_hist : hist -> hist -> hist
(** Elementwise bucket sums.  Raises [Invalid_argument] on bucket-count
    mismatch. *)

val hist_mean : hist -> float

type span = {
  name : string;
  domain : int;
  start_ns : int64;  (** Process-monotonic; comparable within one run. *)
  dur_ns : int64;
}

type t = {
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * hist) list;
  spans : span list;  (** Sorted by start time. *)
  dropped_spans : int;
      (** Spans lost to ring-buffer overwrites across all domains. *)
}

val empty : t
val counter : t -> string -> int option
val gauge : t -> string -> float option
val hist : t -> string -> hist option

val seconds_of_ns : int64 -> float

val span_rollup : t -> (string * int * int64) list
(** Distinct span names in first-start order with occurrence count and total
    duration — the phase wall-time table. *)

val pp_summary : Format.formatter -> t -> unit
(** Phase wall-times (span rollup), counters, gauges and histogram
    count/mean — the generic part of the CLI's [--telemetry] table. *)
