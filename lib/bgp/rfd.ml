type event = Withdrawal | Readvertisement | Attribute_change

type t = {
  params : Rfd_params.t;
  mutable penalty : float;      (* value at [last_time] *)
  mutable last_time : float;
  mutable suppressed : bool;
  mutable suppressed_since : float;
}

let create params =
  {
    params;
    penalty = 0.0;
    last_time = 0.0;
    suppressed = false;
    suppressed_since = 0.0;
  }

let params t = t.params

let decayed t ~now =
  let dt = now -. t.last_time in
  if dt <= 0.0 then t.penalty
  else t.penalty *. Float.pow 2.0 (-.dt /. t.params.Rfd_params.half_life)

let penalty t ~now = decayed t ~now

(* Fold the decay into the stored penalty and release when it drops below
   the reuse threshold.  Max-suppress-time is enforced through the penalty
   ceiling (Cisco semantics): a capped penalty decays to the reuse threshold
   in exactly max-suppress-time, so suppression never outlives it once the
   flapping stops — while continued flapping keeps the route suppressed. *)
let refresh t ~now =
  let p = decayed t ~now in
  t.penalty <- p;
  t.last_time <- Float.max t.last_time now;
  if t.suppressed then begin
    let timer_release =
      t.params.Rfd_params.timer_based_suppression
      && now -. t.suppressed_since >= t.params.Rfd_params.max_suppress_time
    in
    if p < t.params.Rfd_params.reuse_threshold || timer_release then
      t.suppressed <- false
  end

let suppressed t ~now =
  refresh t ~now;
  t.suppressed

let increment params event =
  match event with
  | Withdrawal -> params.Rfd_params.withdrawal_penalty
  | Readvertisement -> params.Rfd_params.readvertisement_penalty
  | Attribute_change -> params.Rfd_params.attribute_change_penalty

let record t ~now event =
  refresh t ~now;
  let bumped = t.penalty +. increment t.params event in
  (* The ceiling cap is how IOS enforces max-suppress-time; under timer
     semantics the timer does that job and the penalty runs free. *)
  t.penalty <-
    (if t.params.Rfd_params.timer_based_suppression then bumped
     else Float.min (Rfd_params.penalty_ceiling t.params) bumped);
  t.last_time <- now;
  if (not t.suppressed) && t.penalty > t.params.Rfd_params.suppress_threshold
  then begin
    t.suppressed <- true;
    t.suppressed_since <- now
  end

let reuse_eta t ~now =
  refresh t ~now;
  if not t.suppressed then None
  else begin
    let reuse = t.params.Rfd_params.reuse_threshold in
    let decay_eta =
      if t.penalty <= reuse then now
      else
        (* penalty · 2^(−dt/half_life) = reuse  ⇒  dt = h · log2(p/reuse) *)
        t.last_time
        +. t.params.Rfd_params.half_life
           *. (Float.log (t.penalty /. reuse) /. Float.log 2.0)
    in
    if t.params.Rfd_params.timer_based_suppression then
      Some
        (Float.min decay_eta
           (t.suppressed_since +. t.params.Rfd_params.max_suppress_time))
    else Some decay_eta
  end

let suppression_started t = if t.suppressed then Some t.suppressed_since else None
