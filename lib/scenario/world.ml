open Because_bgp
module Rng = Because_stats.Rng
module Graph = Because_topology.Graph
module Generate = Because_topology.Generate
module Vantage = Because_collector.Vantage

type params = {
  seed : int;
  topology : Generate.params;
  n_sites : int;
  n_vantage_hosts : int;
  deployment : Deployment.spec;
  mrai_share : float;
  mrai_seconds : float;
  link_delay_min : float;
  link_delay_max : float;
}

let default_params =
  {
    seed = 42;
    topology = Generate.default_params;
    n_sites = 7;
    n_vantage_hosts = 100;
    deployment = Deployment.default_spec;
    mrai_share = 0.8;
    mrai_seconds = 30.0;
    link_delay_min = 0.5;
    link_delay_max = 5.0;
  }

(* Grow a world towards Internet size along one axis.  The Tier-1 clique
   stays fixed (the real Internet's is ~a dozen however large the edge) while
   the transit layer, the stub edge and the vantage-point population scale
   with the factor — the shape the `scale` bench and `--scale` CLI flag
   sweep. *)
let scale_params p ~factor =
  if not (Float.is_finite factor) || factor <= 0.0 then
    invalid_arg "World.scale_params: factor must be positive";
  let scale n = max 1 (int_of_float (Float.round (float_of_int n *. factor))) in
  {
    p with
    topology =
      {
        p.topology with
        Generate.n_transit = scale p.topology.Generate.n_transit;
        n_stub = scale p.topology.Generate.n_stub;
      };
    n_vantage_hosts = scale p.n_vantage_hosts;
  }

type t = {
  params : params;
  graph : Graph.t;
  deployment : Deployment.t;
  site_origins : (int * Asn.t) list;
  origin_upstreams : Asn.Set.t;
  vantages : Vantage.t list;
  mrai_ases : Asn.Set.t;
}

let params t = t.params
let graph t = t.graph
let deployment t = t.deployment
let site_origins t = t.site_origins
let origin_upstreams t = t.origin_upstreams
let vantages t = t.vantages
let monitored t = Vantage.hosts t.vantages

let fresh_rng t ~salt = Rng.create ((t.params.seed * 1_000_003) + salt)

(* Beacon origins: new stub ASs, each multihomed to a Tier-1 and a transit —
   "a maximum of two AS hops away from a Tier 1 provider". *)
let place_sites rng graph n_sites =
  let tier1 = Array.of_list (Generate.tier1_asns graph) in
  let transit = Array.of_list (Generate.transit_asns graph) in
  List.init n_sites (fun site_id ->
      let origin = Asn.of_int (65001 + site_id) in
      Graph.add_as graph origin Graph.Stub;
      let p1 = Rng.choice rng tier1 in
      Graph.add_customer_link graph ~provider:p1 ~customer:origin;
      let p2 = Rng.choice rng transit in
      if not (Graph.has_link graph p2 origin) then
        Graph.add_customer_link graph ~provider:p2 ~customer:origin;
      (site_id, origin))

let pick_vantage_hosts rng graph ~exclude ~count =
  let eligible =
    List.filter
      (fun a -> not (Asn.Set.mem a exclude))
      (Generate.transit_asns graph @ Generate.stub_asns graph)
  in
  let arr = Array.of_list eligible in
  let n = Stdlib.min count (Array.length arr) in
  Array.to_list (Rng.sample_without_replacement rng n arr)

let build params =
  let rng = Rng.create params.seed in
  let topology_rng = Rng.split rng in
  let site_rng = Rng.split rng in
  let deployment_rng = Rng.split rng in
  let vantage_rng = Rng.split rng in
  let mrai_rng = Rng.split rng in
  let graph = Generate.generate topology_rng params.topology in
  let site_origins = place_sites site_rng graph params.n_sites in
  let origins =
    List.fold_left
      (fun acc (_, o) -> Asn.Set.add o acc)
      Asn.Set.empty site_origins
  in
  let origin_upstreams =
    Asn.Set.fold
      (fun origin acc ->
        List.fold_left
          (fun acc (n, _) -> Asn.Set.add n acc)
          acc (Graph.neighbors graph origin))
      origins Asn.Set.empty
  in
  let deployment =
    Deployment.plant deployment_rng graph params.deployment
      ~exclude:(Asn.Set.union origins origin_upstreams)
  in
  let hosts =
    pick_vantage_hosts vantage_rng graph ~exclude:origins
      ~count:params.n_vantage_hosts
  in
  let vantages =
    Vantage.assign vantage_rng ~hosts ~per_project_share:[ 0.5; 0.45; 0.35 ]
  in
  let mrai_ases =
    List.fold_left
      (fun acc asn ->
        if Rng.float mrai_rng < params.mrai_share then Asn.Set.add asn acc
        else acc)
      Asn.Set.empty (Graph.ases graph)
  in
  {
    params;
    graph;
    deployment;
    site_origins;
    origin_upstreams;
    vantages;
    mrai_ases;
  }

let of_sizes ~seed ~transit ~stub ~vantage_hosts =
  let topology =
    { default_params.topology with Generate.n_transit = transit; n_stub = stub }
  in
  build { default_params with seed; n_vantage_hosts = vantage_hosts; topology }

let router_configs t =
  List.map
    (fun asn ->
      let mrai =
        if Asn.Set.mem asn t.mrai_ases then t.params.mrai_seconds else 0.0
      in
      let neighbors =
        List.map
          (fun (n, relationship) ->
            { Router.neighbor_asn = n; relationship; mrai })
          (Graph.neighbors t.graph asn)
      in
      {
        Router.asn;
        neighbors;
        rfd_scope = Deployment.scope_of t.deployment asn;
        rfd_params = Deployment.params_of t.deployment asn;
      })
    (Graph.ases t.graph)

(* Deterministic per-directed-link delay from a lightweight hash. *)
let delay t ~from_asn ~to_asn =
  let mix h v =
    let h = h lxor (v * 0x9E3779B1) in
    let h = (h lxor (h lsr 16)) * 0x85EBCA6B in
    h lxor (h lsr 13)
  in
  let h = mix (mix (mix 0x2545F491 t.params.seed) (Asn.to_int from_asn)) (Asn.to_int to_asn) in
  let unit = float_of_int (h land 0xFFFFFF) /. float_of_int 0xFFFFFF in
  t.params.link_delay_min
  +. (unit *. (t.params.link_delay_max -. t.params.link_delay_min))

let node_priors t =
  List.map (fun (_, origin) -> (origin, Because.Prior.Near_zero)) t.site_origins
