(* Shared, lazily computed state for all bench sections: the world is built
   once and the per-interval campaigns are cached, so running every section
   costs six simulations, not dozens.

   Set BECAUSE_BENCH_QUICK=1 for a smaller world and fewer cycles during
   development; the recorded bench_output.txt uses the full scale. *)

module Sc = Because_scenario

let quick =
  match Sys.getenv_opt "BECAUSE_BENCH_QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let world_params =
  if quick then
    {
      Sc.World.default_params with
      n_vantage_hosts = 25;
      topology =
        {
          Because_topology.Generate.default_params with
          n_transit = 30;
          n_stub = 100;
        };
    }
  else Sc.World.default_params

let world = lazy (Sc.World.build world_params)

let intervals_minutes = [ 1.0; 2.0; 3.0; 5.0; 10.0; 15.0 ]

let campaign_params interval_minutes =
  let p = Sc.Campaign.default_params ~update_interval:(interval_minutes *. 60.0) in
  if quick then { p with Sc.Campaign.cycles = 2 } else p

let cache : (float, Sc.Campaign.outcome) Hashtbl.t = Hashtbl.create 8

(* The paper ran two multi-prefix campaigns: March with 1/2/3-minute
   Beacons oscillating together, April with 5/10/15.  Each run simulates one
   of these and caches the three per-interval outcomes. *)
let run_campaign_batch intervals_minutes =
  let t0 = Unix.gettimeofday () in
  Printf.printf "[running campaign with %s-minute Beacons ...]\n%!"
    (String.concat "/" (List.map (Printf.sprintf "%.0f") intervals_minutes));
  let outcomes =
    Sc.Campaign.run_multi (Lazy.force world)
      (campaign_params (List.hd intervals_minutes))
      ~intervals:(List.map (fun m -> m *. 60.0) intervals_minutes)
  in
  (match outcomes with
  | first :: _ ->
      Printf.printf "[campaign done in %.0f s: %d deliveries, %d records]\n%!"
        (Unix.gettimeofday () -. t0)
        first.Sc.Campaign.deliveries
        (List.length first.Sc.Campaign.records)
  | [] -> ());
  List.iter2
    (fun minutes outcome -> Hashtbl.replace cache minutes outcome)
    intervals_minutes outcomes

let campaign interval_minutes =
  (match Hashtbl.find_opt cache interval_minutes with
  | Some _ -> ()
  | None ->
      if List.mem interval_minutes [ 1.0; 2.0; 3.0 ] then
        run_campaign_batch [ 1.0; 2.0; 3.0 ]
      else if List.mem interval_minutes [ 5.0; 10.0; 15.0 ] then
        run_campaign_batch [ 5.0; 10.0; 15.0 ]
      else run_campaign_batch [ interval_minutes ]);
  Hashtbl.find cache interval_minutes

let one_minute () = campaign 1.0

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let paper note = Printf.printf "paper: %s\n" note

(* The one writer behind every BENCH_*.json: a schema tag, the quick flag
   and the section's rows, each already rendered as one JSON object. *)
let write_json ~schema path rows =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\n  \"schema\": \"%s\",\n  \"quick\": %b,\n  \"results\": [\n%s\n  ]\n}\n"
        schema quick
        (String.concat ",\n" (List.map (fun row -> "    " ^ row) rows)))

(* A name/value/unit row, the shape of the service and HTTP files. *)
let value_row ~name ~value ~unit_ =
  Printf.sprintf "{ \"name\": \"%s\", \"value\": %.3f, \"unit\": \"%s\" }"
    (Because_telemetry.Manifest.json_escape name) value unit_
