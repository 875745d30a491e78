open Because_bgp

type pair = {
  burst_start : float;
  burst_end : float;
  break_end : float;
  burst_updates : int;
  last_burst_update : float option;
  readvertisement : float option;
  r_delta : float option;
  readvertisement_path : Asn.t list option;
  burst_dominant_path : Asn.t list option;
  damped : bool;
}

let default_min_r_delta = 300.0
let default_margin = 90.0

(* Most frequent path in [counts]; ties go to the smallest path. *)
let dominant_path counts =
  let best =
    Clean.Path_table.fold
      (fun path count acc ->
        let count = !count in
        match acc with
        | Some (_, best_count) when best_count > count -> acc
        | Some (best_path, best_count)
          when best_count = count && List.compare Asn.compare best_path path <= 0
          ->
            acc
        | _ -> Some (path, count))
      counts None
  in
  Option.map fst best

(* The all-float accumulator is stored flat, so raising the maximum
   allocates nothing. *)
type last = { mutable last : float }

let analyse_pair ?(min_r_delta = default_min_r_delta) ~times ~window () =
  let burst_start, burst_end, break_end = window in
  let burst_hi = burst_end +. default_margin in
  let in_break t = t > burst_hi && t <= break_end in
  (* One walk over the Burst: its update count, its last arrival and the
     cleaned-path counts of its announcements. *)
  let burst_updates = ref 0 and last = { last = neg_infinity } in
  let counts = Clean.Path_table.create 8 in
  List.iter
    (fun (t, u) ->
      if t >= burst_start && t <= burst_hi then begin
        incr burst_updates;
        last.last <- Float.max last.last t;
        match u with
        | Update.Withdraw _ -> ()
        | Update.Announce { as_path; _ } -> (
            match Clean.clean as_path with
            | None -> ()
            | Some cleaned -> (
                match Clean.Path_table.find counts cleaned with
                | count -> incr count
                | exception Not_found -> Clean.Path_table.add counts cleaned (ref 1)))
      end)
    times;
  let burst_updates = !burst_updates in
  let last_burst_update =
    if burst_updates = 0 then None else Some last.last
  in
  let burst_dominant_path = dominant_path counts in
  (* The re-advertisement: a Break announcement whose aggregator-encoded
     send time lies far in the past — it was held back by damping. *)
  let qualifying (t, u) =
    if not (in_break t) then None
    else
      match Update.aggregator u with
      | Some { sent_at; valid = true; _ } ->
          let delay = t -. sent_at in
          if delay > min_r_delta then Some (t, delay, u) else None
      | Some { valid = false; _ } | None -> None
  in
  let readv = List.find_map qualifying times in
  (* Attribute the damped evidence to the path the vantage point converges
     to: releases trigger brief path exploration, so the first qualifying
     announcement can carry a transient alternative path, while the last
     Break announcement is the settled (previously damped) path. *)
  let readvertisement_path =
    Option.bind readv (fun (t_first, _, first_u) ->
        let converged =
          List.fold_left
            (fun acc (t, u) ->
              if t >= t_first && in_break t && Update.is_announce u then
                Some u
              else acc)
            (Some first_u) times
        in
        Option.bind converged (fun u ->
            Option.bind (Update.as_path u) Clean.clean))
  in
  {
    burst_start;
    burst_end;
    break_end;
    burst_updates;
    last_burst_update;
    readvertisement = Option.map (fun (t, _, _) -> t) readv;
    r_delta = Option.map (fun (_, d, _) -> d) readv;
    readvertisement_path;
    burst_dominant_path;
    damped = Option.is_some readv;
  }
