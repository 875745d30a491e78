(** A measurement world: topology + Beacon sites + vantage points + planted
    RFD deployment — everything §4.3's setup describes, held constant across
    the per-interval campaigns so that "ASs measured in all experiments" is a
    meaningful universe (Fig. 12). *)

open Because_bgp

type params = {
  seed : int;
  topology : Because_topology.Generate.params;
  n_sites : int;               (** Beacon sites (paper: 7). *)
  n_vantage_hosts : int;       (** ASs hosting collector sessions. *)
  deployment : Deployment.spec;
  mrai_share : float;          (** Share of ASs applying a 30-second MRAI. *)
  mrai_seconds : float;
  link_delay_min : float;      (** Per-link one-way delay bounds, seconds. *)
  link_delay_max : float;
}

val default_params : params

val scale_params : params -> factor:float -> params
(** Grow (or shrink) a world towards Internet size: transit count, stub
    count and vantage-host count are multiplied by [factor] (minimum 1
    each) while the Tier-1 clique and Beacon sites stay fixed.  Raises
    [Invalid_argument] on a non-positive factor. *)

type t

val build : params -> t

val of_sizes : seed:int -> transit:int -> stub:int -> vantage_hosts:int -> t
(** {!build} on {!default_params} with these transit, stub and
    vantage-host counts: the world of a [because] command line or a
    service spec. *)

val params : t -> params
val graph : t -> Because_topology.Graph.t
val deployment : t -> Deployment.t

val site_origins : t -> (int * Asn.t) list
(** [(site_id, origin ASN)] pairs. *)

val origin_upstreams : t -> Asn.Set.t
(** The Beacon sites' providers — verified (by construction) not to damp. *)

val vantages : t -> Because_collector.Vantage.t list
val monitored : t -> Asn.Set.t

val router_configs : t -> Router.config list
(** One config per AS including Beacon origins, with deployment-driven RFD
    scopes/parameters and per-AS MRAI. *)

val delay : t -> from_asn:Asn.t -> to_asn:Asn.t -> float
(** Deterministic per-directed-link propagation delay. *)

val node_priors : t -> (Asn.t * Because.Prior.t) list
(** Prior side-information: Beacon origins are known not to damp (§3.2
    "our Beacons do not dampen routes"). *)

val fresh_rng : t -> salt:int -> Because_stats.Rng.t
(** An independent stream derived from the world seed; campaigns use
    different salts. *)
