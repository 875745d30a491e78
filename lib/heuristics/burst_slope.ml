open Because_bgp
module Dump = Because_collector.Dump
module Clean = Because_labeling.Clean
module Regression = Because_stats.Regression

let bins = 40

let score_of_histogram heights =
  let total = Array.fold_left ( +. ) 0.0 heights in
  if total < float_of_int bins /. 4.0 then 0.0
  else begin
    let fit = Regression.fit_heights heights in
    let rel = Regression.relative_change fit ~n:(Array.length heights) in
    (* Announcements dying out ⇒ rel → −1 ⇒ score → 1. *)
    Float.max 0.0 (Float.min 1.0 (-.rel))
  end

let histograms ~records ~windows_of =
  (* Counted per cleaned path first, then credited to each AS on it: the
     counts are whole numbers, so the order of the float additions cannot
     change a bin. *)
  let by_path = Clean.Path_table.create 64 in
  List.iter
    (fun (r : Dump.record) ->
      match r.Dump.update with
      | Update.Withdraw _ -> ()
      | Update.Announce { prefix; as_path; _ } -> (
          let t = r.Dump.export_at in
          let in_window (bs, be, _) = t >= bs && t < be && be > bs in
          let windows = windows_of prefix in
          (* Most records fall in no window (anchors, Breaks): only the
             ones that count have their path cleaned. *)
          if List.exists in_window windows then
            match Clean.clean as_path with
            | None -> ()
            | Some path ->
                let cell =
                  match Clean.Path_table.find by_path path with
                  | c -> c
                  | exception Not_found ->
                      let c = Array.make bins 0.0 in
                      Clean.Path_table.add by_path path c;
                      c
                in
                List.iter
                  (fun ((bs, be, _) as w) ->
                    if in_window w then begin
                      let width = (be -. bs) /. float_of_int bins in
                      let b =
                        Stdlib.min (bins - 1)
                          (int_of_float ((t -. bs) /. width))
                      in
                      cell.(b) <- cell.(b) +. 1.0
                    end)
                  windows))
    records;
  Clean.Path_table.fold
    (fun path counts acc ->
      List.fold_left
        (fun acc asn ->
          match Asn.Map.find_opt asn acc with
          | None -> Asn.Map.add asn (Array.copy counts) acc
          | Some h ->
              Array.iteri (fun b c -> h.(b) <- h.(b) +. c) counts;
              acc)
        acc path)
    by_path Asn.Map.empty

let scores ~records ~windows_of =
  Asn.Map.map score_of_histogram (histograms ~records ~windows_of)
