open Because_bgp
module Label = Because_labeling.Label
module Project = Because_collector.Project
module Vantage = Because_collector.Vantage
module Rng = Because_stats.Rng

let links_of_path path =
  let rec go = function
    | a :: (b :: _ as rest) ->
        let link = if Asn.compare a b <= 0 then (a, b) else (b, a) in
        link :: go rest
    | _ -> []
  in
  go path

module Link_set = Set.Make (struct
  type t = Asn.t * Asn.t

  let compare (a1, b1) (a2, b2) =
    match Asn.compare a1 a2 with 0 -> Asn.compare b1 b2 | c -> c
end)

type link_coverage = {
  site_id : int;
  links_seen : int;
  share_of_all : float;
}

let site_links outcome =
  (* site id -> link set over all that site's labeled paths. *)
  let per_site = Hashtbl.create 8 in
  let all = ref Link_set.empty in
  List.iter
    (fun (lp : Label.labeled_path) ->
      match Campaign.site_of_prefix outcome lp.Label.prefix with
      | None -> ()
      | Some site ->
          let links = links_of_path lp.Label.path in
          let set =
            Option.value (Hashtbl.find_opt per_site site)
              ~default:Link_set.empty
          in
          let set =
            List.fold_left (fun s l -> Link_set.add l s) set links
          in
          Hashtbl.replace per_site site set;
          all := List.fold_left (fun s l -> Link_set.add l s) !all links)
    outcome.Campaign.labeled;
  (per_site, !all)

let site_link_coverage outcome =
  let per_site, all = site_links outcome in
  let total = Link_set.cardinal all in
  let coverage =
    Hashtbl.fold
      (fun site set acc ->
        {
          site_id = site;
          links_seen = Link_set.cardinal set;
          share_of_all =
            (if total = 0 then 0.0
             else float_of_int (Link_set.cardinal set) /. float_of_int total);
        }
        :: acc)
      per_site []
  in
  (List.sort (fun a b -> Int.compare a.site_id b.site_id) coverage, total)

let paths_per_link_counts outcome ~sites =
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (lp : Label.labeled_path) ->
      match Campaign.site_of_prefix outcome lp.Label.prefix with
      | Some site when List.mem site sites ->
          List.iter
            (fun link ->
              Hashtbl.replace counts link
                (1 + Option.value (Hashtbl.find_opt counts link) ~default:0))
            (links_of_path lp.Label.path)
      | Some _ | None -> ())
    outcome.Campaign.labeled;
  Hashtbl.fold (fun _ c acc -> float_of_int c :: acc) counts []

let paths_per_link_median outcome ~all_sites =
  let sites =
    List.map (fun (s : Because_beacon.Site.t) -> s.Because_beacon.Site.site_id)
      outcome.Campaign.sites
  in
  let chosen =
    if all_sites then sites
    else begin
      (* Busiest single site by observed link count. *)
      let coverage, _ = site_link_coverage outcome in
      match
        List.sort (fun a b -> Int.compare b.links_seen a.links_seen) coverage
      with
      | best :: _ -> [ best.site_id ]
      | [] -> []
    end
  in
  match paths_per_link_counts outcome ~sites:chosen with
  | [] -> 0.0
  | counts -> Because_stats.Summary.median (Array.of_list counts)

type overlap = {
  per_project : (Project.t * int) list;
  pairwise : ((Project.t * Project.t) * int) list;
  all_three : int;
  total : int;
}

let project_overlap outcome =
  let of_project project =
    List.fold_left
      (fun acc (lp : Label.labeled_path) ->
        if Project.equal lp.Label.vp.Vantage.project project then
          List.fold_left
            (fun s l -> Link_set.add l s)
            acc
            (links_of_path lp.Label.path)
        else acc)
      Link_set.empty outcome.Campaign.labeled
  in
  let sets = List.map (fun p -> (p, of_project p)) Project.all in
  let union =
    List.fold_left (fun acc (_, s) -> Link_set.union acc s) Link_set.empty sets
  in
  let rec pairs = function
    | [] -> []
    | (p1, s1) :: rest ->
        List.map
          (fun (p2, s2) ->
            ((p1, p2), Link_set.cardinal (Link_set.inter s1 s2)))
          rest
        @ pairs rest
  in
  let all_three =
    match sets with
    | (_, first) :: rest ->
        Link_set.cardinal
          (List.fold_left (fun acc (_, s) -> Link_set.inter acc s) first rest)
    | [] -> 0
  in
  {
    per_project = List.map (fun (p, s) -> (p, Link_set.cardinal s)) sets;
    pairwise = pairs sets;
    all_three;
    total = Link_set.cardinal union;
  }

type archetype = {
  label : string;
  marginal : Because.Posterior.marginal;
  category : Because.Categorize.t;
}

let archetypes world outcome =
  match outcome.Campaign.posterior with
  | None -> []
  | Some posterior ->
      let marginals = posterior.Because.Posterior.pooled in
      let categories = outcome.Campaign.categories in
      let category_of asn =
        Option.value
          (List.assoc_opt asn categories)
          ~default:Because.Categorize.C3
      in
      let best ~better =
        Array.fold_left
          (fun acc (m : Because.Posterior.marginal) ->
            match acc with
            | Some current when not (better m current) -> acc
            | _ -> Some m)
          None marginals
      in
      let strong_damper =
        best ~better:(fun (m : Because.Posterior.marginal) c ->
            m.Because.Posterior.mean *. m.Because.Posterior.certainty
            > c.Because.Posterior.mean *. c.Because.Posterior.certainty)
      in
      let strong_clean =
        best ~better:(fun m c ->
            (1.0 -. m.Because.Posterior.mean) *. m.Because.Posterior.certainty
            > (1.0 -. c.Because.Posterior.mean) *. c.Because.Posterior.certainty)
      in
      let prior_recovered =
        best ~better:(fun m c ->
            m.Because.Posterior.certainty < c.Because.Posterior.certainty)
      in
      let inconsistent =
        match Deployment.inconsistent (World.deployment world) with
        | Some (asn, _) ->
            Array.fold_left
              (fun acc (m : Because.Posterior.marginal) ->
                if Asn.equal m.Because.Posterior.asn asn then Some m else acc)
              None marginals
        | None -> None
      in
      List.filter_map
        (fun (label, m) ->
          Option.map
            (fun (m : Because.Posterior.marginal) ->
              { label; marginal = m;
                category = category_of m.Because.Posterior.asn })
            m)
        [
          ("(a) strong evidence of damping", strong_damper);
          ("(b) strong evidence of no damping", strong_clean);
          ("(c) inconsistent damper (AS 701 analogue)", inconsistent);
          ("(d) little data: prior recovered", prior_recovered);
        ]

type scatter_point = {
  asn : Asn.t;
  mean : float;
  certainty : float;
  category : Because.Categorize.t;
}

let scatter outcome =
  match outcome.Campaign.posterior with
  | None -> []
  | Some posterior ->
      let marginals = posterior.Because.Posterior.pooled in
      let categories = outcome.Campaign.categories in
      Array.to_list
        (Array.map
           (fun (m : Because.Posterior.marginal) ->
             {
               asn = m.Because.Posterior.asn;
               mean = m.Because.Posterior.mean;
               certainty = m.Because.Posterior.certainty;
               category =
                 Option.value
                   (List.assoc_opt m.Because.Posterior.asn categories)
                   ~default:Because.Categorize.C3;
             })
           marginals)

type interval_share = {
  interval : float;
  consistent : int;
  with_promotions : int;
  measured : int;
}

let interval_shares outcomes =
  (* Only ASs measured in every campaign count (Fig. 12's caption). *)
  let universes = List.map Campaign.universe outcomes in
  let common =
    match universes with
    | [] -> Asn.Set.empty
    | first :: rest -> List.fold_left Asn.Set.inter first rest
  in
  List.map
    (fun (o : Campaign.outcome) ->
      let damping_in categories =
        Asn.Set.cardinal
          (Asn.Set.inter common (Because.Evaluate.damping_set categories))
      in
      {
        interval = o.Campaign.params.Campaign.update_interval;
        consistent = damping_in o.Campaign.categories_step1;
        with_promotions = damping_in o.Campaign.categories;
        measured = Asn.Set.cardinal common;
      })
    outcomes

let damped_path_r_deltas outcome =
  let deltas =
    List.filter_map
      (fun (lp : Label.labeled_path) ->
        if lp.Label.rfd then lp.Label.mean_r_delta else None)
      outcome.Campaign.labeled
  in
  Array.of_list deltas

let plateau_mass r_deltas ~minutes ~tolerance =
  let n = Array.length r_deltas in
  if n = 0 then 0.0
  else begin
    let lo = (minutes -. tolerance) *. 60.0 in
    let hi = (minutes +. tolerance) *. 60.0 in
    let hits =
      Array.fold_left
        (fun acc d -> if d >= lo && d <= hi then acc + 1 else acc)
        0 r_deltas
    in
    float_of_int hits /. float_of_int n
  end

type verdict_pair = {
  subject : Asn.t;
  truth : bool;
  because_says : bool;
  heuristics_say : bool;
  reason : string;
}

type ground_truth_report = {
  cases : verdict_pair list;
  because_metrics : Because.Evaluate.metrics;
  heuristic_metrics : Because.Evaluate.metrics;
}

let against_ground_truth ?(feedback_size = 75) ~rng world outcome =
  let deployment = World.deployment world in
  let dampers = Deployment.dampers deployment in
  let detectable = Deployment.detectable_dampers deployment in
  let universe = Campaign.universe outcome in
  let because_set = Campaign.because_damping outcome in
  let heuristic_set = Campaign.heuristic_damping outcome in
  (* Feedback subset: every visible damper replies, plus a random sample of
     clean ASs — like the paper's 75 operator replies.  ASs whose damping is
     undetectable by construction (customer-only scopes) are excluded, as the
     paper excluded AS 8218 and AS 7575. *)
  let visible_dampers =
    Asn.Set.elements (Asn.Set.inter detectable universe)
  in
  let clean_pool =
    Asn.Set.elements (Asn.Set.diff universe dampers)
  in
  let clean_pool = Array.of_list clean_pool in
  Rng.shuffle rng clean_pool;
  let n_clean =
    Stdlib.min (Array.length clean_pool)
      (Stdlib.max 0 (feedback_size - List.length visible_dampers))
  in
  let subjects =
    visible_dampers @ Array.to_list (Array.sub clean_pool 0 n_clean)
  in
  let upstream_dampers_of asn =
    (* Does some labeled path place a damper between this AS and the
       Beacon? — the paper's "upstream uses RFD" divergence reason. *)
    List.exists
      (fun (lp : Label.labeled_path) ->
        lp.Label.rfd
        && List.exists (Asn.equal asn) lp.Label.path
        && List.exists
             (fun other ->
               (not (Asn.equal other asn)) && Asn.Set.mem other dampers)
             lp.Label.path)
      outcome.Campaign.labeled
  in
  let inconsistent_asn =
    Option.map fst (Deployment.inconsistent deployment)
  in
  let cases =
    List.map
      (fun subject ->
        let truth = Asn.Set.mem subject dampers in
        let because_says = Asn.Set.mem subject because_set in
        let heuristics_say = Asn.Set.mem subject heuristic_set in
        let reason =
          if Bool.equal truth because_says && Bool.equal truth heuristics_say
          then "-"
          else if truth && because_says && not heuristics_say then
            if Some subject = inconsistent_asn then
              "Heterogeneous configuration"
            else "Heuristics below threshold"
          else if truth && (not because_says) && heuristics_say then
            "Upstream uses RFD"
          else if (not truth) && heuristics_say then
            if upstream_dampers_of subject then "Upstream uses RFD"
            else "Heuristic false positive"
          else if truth && not (because_says || heuristics_say) then
            if upstream_dampers_of subject then "Hidden behind a damper"
            else "Not visible on damped paths"
          else "Other"
        in
        { subject; truth; because_says; heuristics_say; reason })
      subjects
  in
  let subject_set =
    List.fold_left (fun s c -> Asn.Set.add c.subject s) Asn.Set.empty cases
  in
  {
    cases;
    because_metrics =
      Because.Evaluate.of_sets ~predicted:because_set ~truth:dampers
        ~universe:subject_set;
    heuristic_metrics =
      Because.Evaluate.of_sets ~predicted:heuristic_set ~truth:dampers
        ~universe:subject_set;
  }

let beacon_update_share outcome =
  let beacon_space = Prefix.of_string "10.0.0.0/8" in
  let total = List.length outcome.Campaign.records in
  if total = 0 then 0.0
  else begin
    let beacon =
      List.length
        (List.filter
           (fun (r : Because_collector.Dump.record) ->
             Prefix.contains beacon_space (Update.prefix r.Because_collector.Dump.update))
           outcome.Campaign.records)
    in
    float_of_int beacon /. float_of_int total
  end

let rov_benchmark ~rng ?config outcome =
  (* Distinct observed paths are the path substrate, as §7 used the AS paths
     of the two RPKI Beacon prefixes. *)
  let paths =
    List.sort_uniq (List.compare Asn.compare)
      (List.map (fun (lp : Label.labeled_path) -> lp.Label.path)
         outcome.Campaign.labeled)
  in
  (* Plant ROV at the most frequent transit ASs until ≈90% of paths are
     positive — the paper's dataset had 90% ROV paths. *)
  let freq = Hashtbl.create 64 in
  List.iter
    (fun path ->
      List.iter
        (fun asn ->
          Hashtbl.replace freq asn
            (1 + Option.value (Hashtbl.find_opt freq asn) ~default:0))
        path)
    paths;
  let ranked =
    Hashtbl.fold (fun asn c acc -> (asn, c) :: acc) freq []
    |> List.sort (fun (a1, c1) (a2, c2) ->
           match Int.compare c2 c1 with 0 -> Asn.compare a1 a2 | c -> c)
  in
  (* A realistic mix, like the isbgpsafeyet-style ground truth the paper
     used: the top transit plus a spread of smaller ASs (~12 % of the
     measured ASs).  The big validator alone pushes the positive share to
     ≈90 % and hides the smaller ones behind it — the recall gap of
     Table 4. *)
  let rov_ases =
    List.fold_left
      (fun acc (i, asn) ->
        (* The two busiest transits push the positive share to the paper's
           ~90%; the every-8th tail spreads smaller validators, several of
           which end up hidden behind the big two. *)
        if i < 2 || i mod 8 = 0 then Asn.Set.add asn acc else acc)
      Asn.Set.empty
      (List.mapi (fun i (asn, _) -> (i, asn)) ranked)
  in
  Because_rov.Rov.benchmark ~rng ?config ~paths ~rov_ases ()
