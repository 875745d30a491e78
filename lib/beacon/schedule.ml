type action = Announce | Withdraw

type t = {
  start : float;
  lead_in : float;
  update_interval : float;
  flaps : int;
  break_duration : float;
  cycles : int;
  ripe : bool;
}

let two_phase ?(start = 0.0) ?(lead_in = 600.0) ~update_interval ~flaps
    ~break_duration ~cycles () =
  if update_interval <= 0.0 then
    invalid_arg "Schedule.two_phase: update_interval must be positive";
  if flaps < 1 then invalid_arg "Schedule.two_phase: need at least one flap";
  if cycles < 1 then invalid_arg "Schedule.two_phase: need at least one cycle";
  { start; lead_in; update_interval; flaps; break_duration; cycles;
    ripe = false }

let of_durations ?(start = 0.0) ?(lead_in = 600.0) ~update_interval
    ~burst_duration ~break_duration ~cycles () =
  let flaps =
    Stdlib.max 1 (int_of_float (burst_duration /. (2.0 *. update_interval)))
  in
  two_phase ~start ~lead_in ~update_interval ~flaps ~break_duration ~cycles ()

let ripe_style ?(start = 0.0) ~period ~cycles () =
  if period <= 0.0 then invalid_arg "Schedule.ripe_style: period must be positive";
  { start; lead_in = 0.0; update_interval = period; flaps = 1;
    break_duration = 0.0; cycles; ripe = true }

let update_interval t = t.update_interval
let burst_duration t =
  (* W at 0, A at i, W at 2i, ..., A at (2·flaps − 1)·i. *)
  float_of_int ((2 * t.flaps) - 1) *. t.update_interval

let cycle_duration t = burst_duration t +. t.break_duration

let burst_start t c =
  t.start +. t.lead_in +. (float_of_int c *. cycle_duration t)

let events t =
  if t.ripe then begin
    (* Announce / withdraw on the fixed period. *)
    let evs = ref [] in
    for c = 0 to t.cycles - 1 do
      let base = t.start +. (2.0 *. float_of_int c *. t.update_interval) in
      evs := (base +. t.update_interval, Withdraw) :: (base, Announce) :: !evs
    done;
    List.rev !evs
  end
  else begin
    let evs = ref [ (t.start, Announce) ] in
    for c = 0 to t.cycles - 1 do
      let bs = burst_start t c in
      for k = 0 to t.flaps - 1 do
        let w = bs +. (2.0 *. float_of_int k *. t.update_interval) in
        let a = w +. t.update_interval in
        evs := (a, Announce) :: (w, Withdraw) :: !evs
      done
    done;
    List.sort (fun (ta, _) (tb, _) -> Float.compare ta tb) !evs
  end

let windows t =
  if t.ripe then
    List.init t.cycles (fun c ->
        let base = t.start +. (2.0 *. float_of_int c *. t.update_interval) in
        (base, base +. t.update_interval, base +. (2.0 *. t.update_interval)))
  else
    List.init t.cycles (fun c ->
        let bs = burst_start t c in
        let be = bs +. burst_duration t in
        (bs, be, be +. t.break_duration))

let end_time t =
  match List.rev (events t) with (time, _) :: _ -> time | [] -> t.start
