open Because_bgp
module Rng = Because_stats.Rng

type spec =
  | Session_reset of { a : Asn.t; b : Asn.t; at : float }
  | Link_flap of { a : Asn.t; b : Asn.t; down_at : float; duration : float }
  | Site_outage of { site_id : int; from_ : float; duration : float }
  | Collector_outage of { vp_id : int; from_ : float; duration : float }
  | Session_impairment of {
      a : Asn.t;
      b : Asn.t;
      loss : float;
      duplication : float;
    }

type t = { specs : spec list }

let empty = { specs = [] }
let is_empty t = t.specs = []
let of_specs specs = { specs }
let specs t = t.specs
let size t = List.length t.specs

type severity = {
  session_reset_share : float;
  link_flap_share : float;
  flap_duration : float;
  site_outage_prob : float;
  site_outage_duration : float;
  collector_outage_share : float;
  collector_outage_duration : float;
  impaired_link_share : float;
  loss_rate : float;
  duplication_rate : float;
}

let calm =
  {
    session_reset_share = 0.0;
    link_flap_share = 0.0;
    flap_duration = 0.0;
    site_outage_prob = 0.0;
    site_outage_duration = 0.0;
    collector_outage_share = 0.0;
    collector_outage_duration = 0.0;
    impaired_link_share = 0.0;
    loss_rate = 0.0;
    duplication_rate = 0.0;
  }

let mild =
  {
    session_reset_share = 0.01;
    link_flap_share = 0.005;
    flap_duration = 900.0;
    site_outage_prob = 0.0;
    site_outage_duration = 0.0;
    collector_outage_share = 0.05;
    collector_outage_duration = 900.0;
    impaired_link_share = 0.005;
    loss_rate = 0.01;
    duplication_rate = 0.01;
  }

let realistic =
  {
    session_reset_share = 0.03;
    link_flap_share = 0.015;
    flap_duration = 1800.0;
    site_outage_prob = 0.1;
    site_outage_duration = 3600.0;
    collector_outage_share = 0.1;
    collector_outage_duration = 1800.0;
    impaired_link_share = 0.01;
    loss_rate = 0.02;
    duplication_rate = 0.02;
  }

let severe =
  {
    session_reset_share = 0.1;
    link_flap_share = 0.05;
    flap_duration = 3600.0;
    site_outage_prob = 0.3;
    site_outage_duration = 7200.0;
    collector_outage_share = 0.25;
    collector_outage_duration = 3600.0;
    impaired_link_share = 0.05;
    loss_rate = 0.05;
    duplication_rate = 0.05;
  }

let severity_of_string = function
  | "none" | "calm" -> Ok calm
  | "mild" -> Ok mild
  | "realistic" -> Ok realistic
  | "severe" -> Ok severe
  | other ->
      Error
        (Printf.sprintf
           "unknown fault severity %S (expected none, mild, realistic or \
            severe)"
           other)

let draw rng severity ~links ~site_ids ~vp_ids ~horizon =
  if horizon <= 0.0 then invalid_arg "Plan.draw: horizon must be positive";
  let when_ () = Rng.range_float rng 0.0 horizon in
  let specs = ref [] in
  let add s = specs := s :: !specs in
  List.iter
    (fun (a, b) ->
      if Rng.float rng < severity.session_reset_share then
        add (Session_reset { a; b; at = when_ () });
      if Rng.float rng < severity.link_flap_share then
        add
          (Link_flap
             { a; b; down_at = when_ (); duration = severity.flap_duration });
      if Rng.float rng < severity.impaired_link_share then
        add
          (Session_impairment
             {
               a;
               b;
               loss = severity.loss_rate;
               duplication = severity.duplication_rate;
             }))
    links;
  List.iter
    (fun site_id ->
      if Rng.float rng < severity.site_outage_prob then
        add
          (Site_outage
             { site_id; from_ = when_ ();
               duration = severity.site_outage_duration }))
    site_ids;
  List.iter
    (fun vp_id ->
      if Rng.float rng < severity.collector_outage_share then
        add
          (Collector_outage
             { vp_id; from_ = when_ ();
               duration = severity.collector_outage_duration }))
    vp_ids;
  { specs = List.rev !specs }

let site_outages t ~site_id =
  List.filter_map
    (function
      | Site_outage o when o.site_id = site_id ->
          Some (o.from_, o.from_ +. o.duration)
      | _ -> None)
    t.specs
  |> List.sort compare

let collector_outages t ~vp_id =
  List.filter_map
    (function
      | Collector_outage o when o.vp_id = vp_id ->
          Some (o.from_, o.from_ +. o.duration)
      | _ -> None)
    t.specs
  |> List.sort compare

let count kind t =
  List.length
    (List.filter
       (fun spec ->
         match (kind, spec) with
         | `Session_reset, Session_reset _
         | `Link_flap, Link_flap _
         | `Site_outage, Site_outage _
         | `Collector_outage, Collector_outage _
         | `Session_impairment, Session_impairment _ -> true
         | _ -> false)
       t.specs)

let pp_spec fmt = function
  | Session_reset { a; b; at } ->
      Format.fprintf fmt "session-reset %a--%a @@ %.0fs" Asn.pp a Asn.pp b at
  | Link_flap { a; b; down_at; duration } ->
      Format.fprintf fmt "link-flap %a--%a @@ %.0fs for %.0fs" Asn.pp a Asn.pp
        b down_at duration
  | Site_outage { site_id; from_; duration } ->
      Format.fprintf fmt "site-outage site%d @@ %.0fs for %.0fs" site_id from_
        duration
  | Collector_outage { vp_id; from_; duration } ->
      Format.fprintf fmt "collector-outage vp%d @@ %.0fs for %.0fs" vp_id
        from_ duration
  | Session_impairment { a; b; loss; duplication } ->
      Format.fprintf fmt "impairment %a--%a loss=%.3f dup=%.3f" Asn.pp a
        Asn.pp b loss duplication

let pp fmt t =
  if is_empty t then Format.fprintf fmt "(no faults)"
  else
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_newline fmt ())
      pp_spec fmt t.specs
