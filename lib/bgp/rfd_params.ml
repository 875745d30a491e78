type t = {
  withdrawal_penalty : float;
  readvertisement_penalty : float;
  attribute_change_penalty : float;
  suppress_threshold : float;
  half_life : float;
  reuse_threshold : float;
  max_suppress_time : float;
  timer_based_suppression : bool;
}

let minutes m = m *. 60.0

let cisco =
  {
    withdrawal_penalty = 1000.0;
    readvertisement_penalty = 0.0;
    attribute_change_penalty = 500.0;
    suppress_threshold = 2000.0;
    half_life = minutes 15.0;
    reuse_threshold = 750.0;
    max_suppress_time = minutes 60.0;
    timer_based_suppression = false;
  }

let juniper =
  {
    cisco with
    readvertisement_penalty = 1000.0;
    suppress_threshold = 3000.0;
  }

let rfc7454 =
  {
    cisco with
    readvertisement_penalty = 1000.0;
    suppress_threshold = 6000.0;
  }

let with_max_suppress_scaled t ~minutes:m =
  { t with max_suppress_time = minutes m; half_life = minutes (m /. 4.0) }

let penalty_ceiling t =
  t.reuse_threshold *. Float.pow 2.0 (t.max_suppress_time /. t.half_life)

let flaps_to_suppress t =
  let per_round = t.withdrawal_penalty +. t.readvertisement_penalty in
  let per_round = Float.max per_round 1.0 in
  int_of_float (Float.ceil (t.suppress_threshold /. per_round))

let pp fmt t =
  Format.fprintf fmt
    "{suppress=%.0f reuse=%.0f half-life=%.0fmin max-suppress=%.0fmin \
     penalties=w%.0f/r%.0f/a%.0f}"
    t.suppress_threshold t.reuse_threshold (t.half_life /. 60.0)
    (t.max_suppress_time /. 60.0) t.withdrawal_penalty
    t.readvertisement_penalty t.attribute_change_penalty
