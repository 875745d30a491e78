(** Recorded simulation input.

    A script is the full external stimulus of a campaign — beacon
    announce/withdraw schedules, background churn, and the fault plan's
    link/session events — recorded {e before} any network exists.  Recording
    rather than scheduling directly is what makes the per-prefix sharded
    driver ({!Sharded}) possible: the same script can be replayed into one
    network (bit-for-bit the historical event stream) or partitioned into
    one shard network per prefix.

    Replay order is recording order, so a single-network replay produces
    exactly the heap insertion order of the pre-script code path. *)

open Because_bgp

type op =
  | Announce of { time : float; origin : Asn.t; prefix : Prefix.t }
  | Withdraw of { time : float; origin : Asn.t; prefix : Prefix.t }
  | Session_reset of { time : float; a : Asn.t; b : Asn.t }
  | Link_down of { time : float; a : Asn.t; b : Asn.t }
  | Link_up of { time : float; a : Asn.t; b : Asn.t }
  | Impair of { a : Asn.t; b : Asn.t; loss : float; duplication : float }

type t

val create : unit -> t

val announce : t -> time:float -> origin:Asn.t -> Prefix.t -> unit
val withdraw : t -> time:float -> origin:Asn.t -> Prefix.t -> unit
val session_reset : t -> time:float -> a:Asn.t -> b:Asn.t -> unit
val link_down : t -> time:float -> a:Asn.t -> b:Asn.t -> unit
val link_up : t -> time:float -> a:Asn.t -> b:Asn.t -> unit
val impair : t -> a:Asn.t -> b:Asn.t -> loss:float -> duplication:float -> unit

val ops : t -> op list
(** In recording order. *)

val n_prefixes : t -> int

val prefixes : t -> Prefix.t list
(** Every prefix an origin event touches, in first-touch order. *)

val rank : t -> Prefix.t -> int option
(** First-touch position of a prefix — its shard number, and so the
    cross-shard merge tiebreak. *)

val install : t -> Network.t -> unit
(** Replay the whole script into one network, in recording order. *)

val replay : op list -> Network.t -> unit
(** Replay [ops] into a network in list order. *)

type partition
(** The ops bucketed by shard, one shard per prefix. *)

val partition : t -> partition
(** One pass over the script: each origin (announce/withdraw) op goes to
    the shard numbered by its prefix's first-touch rank.  The
    link/session/impairment ops are prefix-agnostic and belong to every
    shard; they are stored once, so the partition costs O(ops) whatever
    the prefix count. *)

val n_shards : partition -> int
(** [max 1 (n_prefixes t)]: an empty script is one shard. *)

val shard_ops : partition -> int -> op list
(** One shard's ops in recording order: its prefixes' origin ops with every
    prefix-agnostic op interleaved back at its recorded position. *)
