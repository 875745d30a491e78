open Because_bgp
module Rng = Because_stats.Rng

type record = {
  received_at : float;
  export_at : float;
  vp : Vantage.t;
  update : Update.t;
}

let of_feeds ?(gaps_of = fun _ -> []) rng ~feed_of ~vantages ~noise
    ~campaign_end () =
  let records =
    List.concat_map
      (fun (vp : Vantage.t) ->
        let feed = feed_of vp.Vantage.host_asn in
        let outages =
          Noise.outage_windows rng noise ~campaign_end
          @ gaps_of vp.Vantage.vp_id
        in
        List.filter_map
          (fun (received_at, update) ->
            let in_outage =
              List.exists
                (fun (lo, hi) -> received_at >= lo && received_at <= hi)
                outages
            in
            if in_outage then None
            else begin
              let sent_to_received =
                match Update.aggregator update with
                | Some agg -> Float.max 0.0 (received_at -. agg.sent_at)
                | None -> received_at
              in
              let export_at =
                received_at
                +. Project.export_delay rng vp.Vantage.project
                     ~sent_to_received
              in
              let update = Noise.corrupt_aggregator rng noise update in
              Some { received_at; export_at; vp; update }
            end)
          feed)
      vantages
  in
  List.sort (fun a b -> Float.compare a.export_at b.export_at) records

let prefixes records =
  List.fold_left
    (fun acc r -> Prefix.Set.add (Update.prefix r.update) acc)
    Prefix.Set.empty records

let vp_ids records =
  List.sort_uniq Int.compare
    (List.map (fun r -> r.vp.Vantage.vp_id) records)

let usable r =
  match r.update with
  | Update.Withdraw _ -> true
  | Update.Announce { aggregator = Some { valid = true; _ }; _ } -> true
  | Update.Announce _ -> false
