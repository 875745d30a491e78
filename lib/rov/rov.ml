open Because_bgp

let label_paths ~paths ~rov_ases =
  List.map
    (fun path ->
      (path, List.exists (fun asn -> Asn.Set.mem asn rov_ases) path))
    paths

let hidden_ases ~paths ~rov_ases =
  (* An ROV AS is observable iff some path contains it and no other ROV AS. *)
  let observable =
    List.fold_left
      (fun acc path ->
        let rov_on_path =
          List.filter (fun asn -> Asn.Set.mem asn rov_ases) path
        in
        match rov_on_path with
        | [ only ] -> Asn.Set.add only acc
        | _ -> acc)
      Asn.Set.empty paths
  in
  let seen =
    List.fold_left
      (fun acc path ->
        List.fold_left
          (fun acc asn ->
            if Asn.Set.mem asn rov_ases then Asn.Set.add asn acc else acc)
          acc path)
      Asn.Set.empty paths
  in
  Asn.Set.diff seen observable

type benchmark = {
  result : Because.Infer.result;
  categories : (Asn.t * Because.Categorize.t) list;
  metrics : Because.Evaluate.metrics;
  hidden : Asn.Set.t;
  positive_share : float;
}

let benchmark ~rng ?(config = Because.Infer.default_config) ~paths
    ~rov_ases () =
  let result, { Because.Pinpoint.categories; _ } =
    Because.Pinpoint.localize ~rng ~config ~min_path_support:1
      (label_paths ~paths ~rov_ases)
  in
  let data = Because.Infer.dataset result in
  let universe =
    Array.fold_left
      (fun acc asn -> Asn.Set.add asn acc)
      Asn.Set.empty (Because.Tomography.nodes data)
  in
  let metrics =
    Because.Evaluate.of_sets
      ~predicted:(Because.Evaluate.damping_set categories)
      ~truth:rov_ases ~universe
  in
  {
    result;
    categories;
    metrics;
    hidden = hidden_ases ~paths ~rov_ases;
    positive_share = Because.Tomography.positive_share data;
  }
