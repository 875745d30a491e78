open Because_bgp
module Dump = Because_collector.Dump

type labeled_path = {
  prefix : Prefix.t;
  vp : Because_collector.Vantage.t;
  path : Asn.t list;
  rfd : bool;
  matched_pairs : int;
  total_pairs : int;
  pairs : Signature.pair list;
  mean_r_delta : float option;
  alternatives : Asn.t list list;
}

type evidence = {
  mutable damped : int;
  mutable clean : int;
  mutable r_deltas : float list;
}

(* A Burst–Break window overlapping a collection gap is torn: its missing
   updates would masquerade as suppression, so it contributes no evidence. *)
let torn gaps (burst_start, _burst_end, break_end) =
  List.exists (fun (lo, hi) -> lo <= break_end && hi >= burst_start) gaps

(* Label the chronological [(time, update)] stream of one (vp, prefix),
   usable records only. *)
let label_times ?min_r_delta ~match_threshold ~gaps ~vp ~prefix
    ~times ~windows () =
  let windows = List.filter (fun w -> not (torn gaps w)) windows in
  let pairs =
    List.map
      (fun window ->
        Signature.analyse_pair ?min_r_delta ~times ~window ())
      windows
  in
  let table = Hashtbl.create 4 in
  let evidence_for path =
    match Hashtbl.find_opt table path with
    | Some e -> e
    | None ->
        let e = { damped = 0; clean = 0; r_deltas = [] } in
        Hashtbl.replace table path e;
        e
  in
  List.iter
    (fun (p : Signature.pair) ->
      if p.Signature.damped then begin
        (match p.Signature.readvertisement_path with
        | Some path ->
            let e = evidence_for path in
            e.damped <- e.damped + 1;
            (match p.Signature.r_delta with
            | Some d -> e.r_deltas <- d :: e.r_deltas
            | None -> ())
        | None -> ());
        (* The failover path that carried the Burst's updates while the
           primary was suppressed demonstrably did not damp. *)
        match (p.Signature.burst_dominant_path,
               p.Signature.readvertisement_path)
        with
        | Some dominant, Some readv
          when List.compare Asn.compare dominant readv <> 0 ->
            let e = evidence_for dominant in
            e.clean <- e.clean + 1
        | _ -> ()
      end
      else begin
        match p.Signature.burst_dominant_path with
        | Some path ->
            let e = evidence_for path in
            e.clean <- e.clean + 1
        | None -> ()
      end)
    pairs;
  let all_paths =
    Hashtbl.fold (fun path _ acc -> path :: acc) table []
    |> List.sort (List.compare Asn.compare)
  in
  List.map
    (fun path ->
      let e = Hashtbl.find table path in
      let total = e.damped + e.clean in
      let rfd =
        total > 0
        && float_of_int e.damped /. float_of_int total >= match_threshold
      in
      let mean_r_delta =
        match e.r_deltas with
        | [] -> None
        | ds -> Some (Because_stats.Summary.mean (Array.of_list ds))
      in
      {
        prefix;
        vp;
        path;
        rfd;
        matched_pairs = e.damped;
        total_pairs = total;
        pairs;
        mean_r_delta;
        alternatives =
          List.filter
            (fun other -> List.compare Asn.compare other path <> 0)
            all_paths;
      })
    all_paths

(* One (vantage point, prefix) stream: the vantage point and prefix of its
   first record, the prefix's windows, and its usable records, newest
   first. *)
type stream = {
  vp : Because_collector.Vantage.t;
  prefix : Prefix.t;
  windows : (float * float * float) list;
  mutable rev_records : Dump.record list;
}

module Key = Hashtbl.Make (struct
  type t = int * Prefix.t

  let equal (va, pa) (vb, pb) = Int.equal va vb && Prefix.equal pa pb
  let hash (vp, p) = (Prefix.hash p + (vp * 0x9E3779B1)) land max_int
end)

let label_all ?min_r_delta ?(match_threshold = 0.9)
    ?(gaps_of = fun _ -> []) ~records ~windows_of () =
  (* Group records per (vp, prefix), preserving chronology.  A stream's
     windows are looked up when it is first seen; the records of a prefix
     without windows (an anchor) are dropped right there. *)
  let streams = Key.create 64 in
  List.iter
    (fun (r : Dump.record) ->
      let prefix = Update.prefix r.update in
      let key = (r.vp.Because_collector.Vantage.vp_id, prefix) in
      let st =
        match Key.find streams key with
        | st -> st
        | exception Not_found ->
            let st =
              { vp = r.vp; prefix; windows = windows_of prefix;
                rev_records = [] }
            in
            Key.add streams key st;
            st
      in
      match st.windows with
      | _ :: _ when Dump.usable r -> st.rev_records <- r :: st.rev_records
      | _ -> ())
    records;
  let keys =
    Key.fold
      (fun key st acc ->
        match st.windows with [] -> acc | _ :: _ -> key :: acc)
      streams []
    |> List.sort (fun (ia, pa) (ib, pb) ->
           match Int.compare ia ib with
           | 0 -> Prefix.compare pa pb
           | c -> c)
  in
  List.concat_map
    (fun ((vp_id, _) as key) ->
      let st = Key.find streams key in
      (* Reversing the newest-first records gives chronological times. *)
      let times =
        List.fold_left
          (fun acc (r : Dump.record) -> (r.export_at, r.update) :: acc)
          [] st.rev_records
      in
      label_times ?min_r_delta ~match_threshold ~gaps:(gaps_of vp_id)
        ~vp:st.vp ~prefix:st.prefix ~times ~windows:st.windows ())
    keys

let observations labeled =
  List.map (fun lp -> (lp.path, lp.rfd)) labeled

(* The windows sidecar: one "prefix burst_start burst_end break_end" line
   per Burst–Break window. *)
let write_windows path windows =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (prefix, ws) ->
          List.iter
            (fun (bs, be, bend) ->
              Printf.fprintf oc "%s %f %f %f\n" (Prefix.to_string prefix) bs
                be bend)
            ws)
        windows)

let parse_window_line lineno line =
  let fail fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ p; bs; be; bend ] -> (
      match Prefix.of_string p with
      | exception Invalid_argument _ -> fail "malformed prefix %S" p
      | prefix -> (
          match List.map float_of_string_opt [ bs; be; bend ] with
          | [ Some bs; Some be; Some bend ]
            when List.for_all Float.is_finite [ bs; be; bend ] ->
              Ok (prefix, (bs, be, bend))
          | _ -> fail "malformed window time in %S" line))
  | _ -> fail "want 'prefix burst_start burst_end break_end', got %S" line

let read_windows path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error (Because_collector.Mrt.io_error path e)
  | lines ->
      let table = Hashtbl.create 8 in
      let windows prefix =
        Option.value (Hashtbl.find_opt table prefix) ~default:[]
      in
      let rec go lineno = function
        | [] -> Ok (fun prefix -> List.rev (windows prefix))
        | line :: rest -> (
            match parse_window_line lineno line with
            | Error _ as e -> e
            | Ok (prefix, w) ->
                Hashtbl.replace table prefix (w :: windows prefix);
                go (lineno + 1) rest)
      in
      go 1 lines
