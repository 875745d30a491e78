open Because_bgp
module Rng = Because_stats.Rng

type params = {
  invalid_aggregator_rate : float;
  session_reset_rate : float;
  reset_outage : float;
}

let none =
  { invalid_aggregator_rate = 0.0; session_reset_rate = 0.0;
    reset_outage = 0.0 }

let realistic =
  { invalid_aggregator_rate = 0.01; session_reset_rate = 0.1;
    reset_outage = 1800.0 }

let corrupt_aggregator rng params update =
  match update with
  | Update.Announce a when Rng.float rng < params.invalid_aggregator_rate -> (
      match a.aggregator with
      | Some agg ->
          Update.Announce
            { a with aggregator = Some { agg with valid = false } }
      | None -> update)
  | Update.Announce _ | Update.Withdraw _ -> update

(* One Bernoulli draw, then a uniform start time on a hit. *)
let outage_windows rng params ~campaign_end =
  if Rng.float rng < params.session_reset_rate && campaign_end > 0.0 then begin
    let start = Rng.range_float rng 0.0 campaign_end in
    [ (start, start +. params.reset_outage) ]
  end
  else []
