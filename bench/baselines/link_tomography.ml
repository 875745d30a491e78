open Because_bgp

let encode (a, b) =
  let a = Asn.to_int a and b = Asn.to_int b in
  let lo = Stdlib.min a b and hi = Stdlib.max a b in
  if hi >= 65536 then
    invalid_arg "Link_tomography.encode: endpoint does not fit 16 bits";
  Asn.of_int ((lo * 65536) + hi)

let decode node =
  let v = Asn.to_int node in
  (Asn.of_int (v / 65536), Asn.of_int (v mod 65536))

let is_link_node node = Asn.to_int node >= 65536

let observations obs =
  List.filter_map
    (fun (path, label) ->
      match Because_scenario.Report.links_of_path path with
      | [] -> None
      | links -> Some (List.map encode links, label))
    obs

let median_incidence obs =
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (path, _) ->
      List.iter
        (fun node ->
          Hashtbl.replace counts node
            (1 + Option.value (Hashtbl.find_opt counts node) ~default:0))
        (List.sort_uniq Asn.compare path))
    obs;
  let values = Hashtbl.fold (fun _ c acc -> float_of_int c :: acc) counts [] in
  match values with
  | [] -> 0.0
  | _ -> Because_stats.Summary.median (Array.of_list values)
