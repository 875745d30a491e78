(** AS-level topology with business relationships.

    An undirected multigraph-free graph whose edges carry Gao–Rexford
    relationships.  The adjacency view is directional: [neighbors g a] lists
    each neighbor together with {e the neighbor's role relative to [a]}, which
    is exactly the orientation {!Because_bgp.Router.neighbor} expects. *)

open Because_bgp

type tier = Tier1 | Transit | Stub

type t

val create : unit -> t

val add_as : t -> Asn.t -> tier -> unit
(** Register an AS.  Raises [Invalid_argument] on duplicates. *)

val add_customer_link : t -> provider:Asn.t -> customer:Asn.t -> unit
(** Add a provider–customer edge.  Both endpoints must exist; re-adding or
    linking an AS to itself raises [Invalid_argument]. *)

val add_peer_link : t -> Asn.t -> Asn.t -> unit

val has_link : t -> Asn.t -> Asn.t -> bool

val ases : t -> Asn.t list
(** All registered ASs, in registration order. *)

val size : t -> int
val link_count : t -> int

val tier_of : t -> Asn.t -> tier

val neighbors : t -> Asn.t -> (Asn.t * Policy.relationship) list
(** [(neighbor, role-of-neighbor-relative-to-the-queried-AS)] pairs. *)

val links : t -> (Asn.t * Asn.t) list
(** Undirected edge list with [fst < snd] by ASN. *)

val customer_cone_size : t -> Asn.t -> int
(** Number of ASs reachable by repeatedly descending provider→customer
    edges (excluding the AS itself). *)

val degree : t -> Asn.t -> int

