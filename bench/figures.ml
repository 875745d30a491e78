(* Reproductions of the paper's figures, printed as the rows/series each
   figure plots. *)

open Because_bgp
module Sc = Because_scenario
module Ctx = Bench_context
module Ecdf = Because_stats.Ecdf
module Histogram = Because_stats.Histogram

(* ------------------------------------------------------------------ *)

let fig2 () =
  Ctx.section "Fig. 2 — RFD penalty evolution at a router";
  Ctx.paper
    "penalty rises by 1000 per update, decays with the half-life; the \
     prefix is suppressed above the suppress threshold and released at the \
     reuse threshold once oscillation stops";
  let params = Rfd_params.cisco in
  let state = Rfd.create params in
  (* Oscillate W/A every 2 minutes for 40 minutes (t0..t2), then silence.
     Events are applied as the sampled clock passes them — querying the
     penalty in the past of the decayed state would be meaningless. *)
  let oscillation_end = 2400.0 in
  Printf.printf "%-8s %10s  %s   (suppress=%.0f reuse=%.0f)\n" "t(min)"
    "penalty" "state" params.Rfd_params.suppress_threshold
    params.Rfd_params.reuse_threshold;
  let suppressed_at = ref None and released_at = ref None in
  let next_event = ref 0.0 and withdraw = ref true in
  for minute = 0 to 90 do
    let now = float_of_int minute *. 60.0 in
    while !next_event <= now && !next_event < oscillation_end do
      Rfd.record state ~now:!next_event
        (if !withdraw then Rfd.Withdrawal else Rfd.Readvertisement);
      withdraw := not !withdraw;
      next_event := !next_event +. 120.0
    done;
    let penalty = Rfd.penalty state ~now in
    let suppressed = Rfd.suppressed state ~now in
    (match (!suppressed_at, suppressed) with
    | None, true -> suppressed_at := Some minute
    | _ -> ());
    (match (!suppressed_at, !released_at, suppressed) with
    | Some _, None, false when now > 0.0 -> released_at := Some minute
    | _ -> ());
    if minute mod 3 = 0 || minute < 8 then
      Printf.printf "%-8d %10.0f  %s\n" minute penalty
        (if suppressed then "SUPPRESSED" else "announced")
  done;
  (match (!suppressed_at, !released_at) with
  | Some t1, Some t3 ->
      Printf.printf
        "t1 (suppression) = %d min, t2 (oscillation stops) = %.0f min, t3 \
         (release) = %d min\n"
        t1 (oscillation_end /. 60.0) t3
  | _ -> print_endline "warning: suppression cycle incomplete")

(* ------------------------------------------------------------------ *)

let fig5 () =
  Ctx.section "Fig. 5 — Beacon pattern vs the observed RFD signature";
  Ctx.paper
    "on an RFD path the Burst updates are damped away and a delayed \
     re-advertisement (r-delta) follows in the Break; a non-RFD path \
     mirrors the Beacon pattern";
  let outcome = Ctx.one_minute () in
  let best_by want_rfd =
    List.fold_left
      (fun acc (lp : Because_labeling.Label.labeled_path) ->
        if lp.Because_labeling.Label.rfd <> want_rfd then acc
        else begin
          let strength =
            if want_rfd then lp.Because_labeling.Label.matched_pairs
            else lp.Because_labeling.Label.total_pairs
          in
          match acc with
          | Some (best, _) when best >= strength -> acc
          | _ -> Some (strength, lp)
        end)
      None outcome.Sc.Campaign.labeled
    |> Option.map snd
  in
  let damped = best_by true in
  let clean = best_by false in
  let show kind (lp : Because_labeling.Label.labeled_path) =
    Printf.printf "%s path: %s\n" kind
      (String.concat " " (List.map Asn.to_string lp.Because_labeling.Label.path));
    List.iteri
      (fun i (p : Because_labeling.Signature.pair) ->
        Printf.printf
          "  pair %d: burst [%5.0f..%5.0f] min, %3d updates seen, %s\n"
          i
          (p.Because_labeling.Signature.burst_start /. 60.0)
          (p.Because_labeling.Signature.burst_end /. 60.0)
          p.Because_labeling.Signature.burst_updates
          (match p.Because_labeling.Signature.r_delta with
          | Some d -> Printf.sprintf "re-advertisement with r-delta = %.1f min" (d /. 60.0)
          | None -> "no re-advertisement (clean)")
      )
      lp.Because_labeling.Label.pairs
  in
  (match damped with
  | Some lp -> show "RFD" lp
  | None -> print_endline "no damped path in this campaign");
  match clean with
  | Some lp -> show "non-RFD" lp
  | None -> print_endline "no clean path in this campaign"

(* ------------------------------------------------------------------ *)

let fig6 () =
  Ctx.section "Fig. 6 — similarity of links on AS paths between Beacon sites";
  Ctx.paper
    "70-95% of all AS links are observable from a single site; using all \
     sites raises the median paths-per-link from 3 to 11";
  let outcome = Ctx.one_minute () in
  let coverage, total = Sc.Report.site_link_coverage outcome in
  Printf.printf "distinct AS links observed across all sites: %d\n" total;
  List.iter
    (fun (c : Sc.Report.link_coverage) ->
      Printf.printf "site %d: %4d links = %5.1f%% of all\n"
        c.Sc.Report.site_id c.Sc.Report.links_seen
        (100.0 *. c.Sc.Report.share_of_all))
    coverage;
  Printf.printf "median paths per link, single busiest site: %.0f\n"
    (Sc.Report.paths_per_link_median outcome ~all_sites:false);
  Printf.printf "median paths per link, all sites:           %.0f\n"
    (Sc.Report.paths_per_link_median outcome ~all_sites:true)

(* ------------------------------------------------------------------ *)

let fig7 () =
  Ctx.section "Fig. 7 — overlap of gathered data between collector projects";
  Ctx.paper
    "each route-collector project contributes a substantial amount of \
     additional links, which is why all three are used";
  let outcome = Ctx.one_minute () in
  let o = Sc.Report.project_overlap outcome in
  Printf.printf "links in the union of all projects: %d\n" o.Sc.Report.total;
  List.iter
    (fun (p, n) ->
      Printf.printf "%-12s sees %4d links (%.1f%% of union)\n"
        (Because_collector.Project.name p)
        n
        (100.0 *. float_of_int n /. float_of_int (max 1 o.Sc.Report.total)))
    o.Sc.Report.per_project;
  List.iter
    (fun ((p1, p2), n) ->
      Printf.printf "%-12s ∩ %-12s = %4d\n"
        (Because_collector.Project.name p1)
        (Because_collector.Project.name p2)
        n)
    o.Sc.Report.pairwise;
  Printf.printf "all three projects: %d\n" o.Sc.Report.all_three

(* ------------------------------------------------------------------ *)

let fig8 () =
  Ctx.section "Fig. 8 — propagation times: RIPE-style Beacons vs RFD anchors";
  Ctx.paper
    "both Beacon sets show the same characteristics; RouteViews vantage \
     points export almost exactly 50 s after the Beacon send";
  let outcome = Ctx.one_minute () in
  let samples = Sc.Campaign.propagation_samples outcome ~role:`Anchor in
  if Array.length samples = 0 then print_endline "no anchor samples"
  else begin
    (* Split the anchor fleet in two — the even sites play the RIPE
       reference role; both halves run identical mechanics, reproducing the
       paper's overlap. *)
    let by_site role =
      let wanted =
        List.filter_map
          (fun (s : Because_beacon.Site.t) ->
            if (s.Because_beacon.Site.site_id mod 2 = 0) = role then
              Because_beacon.Site.anchor_prefix s
            else None)
          outcome.Sc.Campaign.sites
      in
      let set = Prefix.Set.of_list wanted in
      List.filter_map
        (fun (r : Because_collector.Dump.record) ->
          let p = Update.prefix r.Because_collector.Dump.update in
          if Prefix.Set.mem p set then
            match Update.aggregator r.Because_collector.Dump.update with
            | Some { sent_at; valid = true; _ } ->
                let d = r.Because_collector.Dump.export_at -. sent_at in
                if d >= 0.0 && d < 300.0 then Some d else None
            | _ -> None
          else None)
        outcome.Sc.Campaign.records
    in
    let print_cdf name samples =
      match samples with
      | [] -> Printf.printf "%s: no samples\n" name
      | _ ->
          let e = Ecdf.of_array (Array.of_list samples) in
          Printf.printf "%s (n=%d):\n" name (List.length samples);
          List.iter
            (fun q ->
              Printf.printf "  p%02.0f = %5.1f s\n" (q *. 100.0)
                (Ecdf.quantile e q))
            [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]
    in
    print_cdf "RIPE-style reference Beacons" (by_site true);
    print_cdf "RFD anchor prefixes" (by_site false);
    (* Per-project medians reproduce the collector-dependent behaviour. *)
    List.iter
      (fun project ->
        let ds =
          List.filter_map
            (fun (r : Because_collector.Dump.record) ->
              let vp = r.Because_collector.Dump.vp in
              if
                Because_collector.Project.equal
                  vp.Because_collector.Vantage.project project
                && Prefix.Set.mem
                     (Update.prefix r.Because_collector.Dump.update)
                     outcome.Sc.Campaign.anchors
              then
                match Update.aggregator r.Because_collector.Dump.update with
                | Some { sent_at; valid = true; _ } ->
                    let d = r.Because_collector.Dump.export_at -. sent_at in
                    if d >= 0.0 && d < 300.0 then Some d else None
                | _ -> None
              else None)
            outcome.Sc.Campaign.records
        in
        match ds with
        | [] -> ()
        | _ ->
            Printf.printf "%-12s median send-to-export: %5.1f s\n"
              (Because_collector.Project.name project)
              (Because_stats.Summary.median (Array.of_list ds)))
      Because_collector.Project.all
  end

(* ------------------------------------------------------------------ *)

let fig9 () =
  Ctx.section "Fig. 9 — archetype marginal posterior distributions";
  Ctx.paper
    "(a) mass at 1: damping; (b) mass at 0: not damping; (c) spread at low \
     mean: inconsistent damping; (d) prior recovered: no usable data";
  let outcome = Ctx.one_minute () in
  let archetypes = Sc.Report.archetypes (Lazy.force Ctx.world) outcome in
  let pooled = Option.map Because.Infer.combined_chain outcome.Sc.Campaign.result in
  List.iter
    (fun (a : Sc.Report.archetype) ->
      let m = a.Sc.Report.marginal in
      let h =
        Histogram.of_array ~lo:0.0 ~hi:1.0 ~bins:25
          (Because_mcmc.Chain.marginal (Option.get pooled)
             m.Because.Posterior.index)
      in
      Printf.printf "%s — %s\n" a.Sc.Report.label
        (Asn.to_string m.Because.Posterior.asn);
      Printf.printf "  mean=%.3f  95%% HDPI=[%.2f, %.2f]  %s\n"
        m.Because.Posterior.mean m.Because.Posterior.hdpi.lo
        m.Because.Posterior.hdpi.hi
        (Format.asprintf "%a" Because.Categorize.pp a.Sc.Report.category);
      Printf.printf "  p: 0%% %s 100%%\n" (Histogram.sparkline h))
    archetypes

(* ------------------------------------------------------------------ *)

let fig10 () =
  Ctx.section "Fig. 10 — announcement distribution across a Burst";
  Ctx.paper
    "a damping AS forwards fewer announcements towards the end of a Burst; \
     the regression over 40 bins separates RFD from non-RFD ASs";
  let outcome = Ctx.one_minute () in
  let world = Lazy.force Ctx.world in
  let histograms =
    Because_heuristics.Burst_slope.histograms
      ~records:outcome.Sc.Campaign.records
      ~windows_of:(Sc.Campaign.windows_of outcome)
  in
  let dampers =
    Sc.Deployment.detectable_dampers (Sc.World.deployment world)
  in
  let pick wanted =
    Asn.Map.fold
      (fun asn h acc ->
        let is_damper = Asn.Set.mem asn dampers in
        let volume = Array.fold_left ( +. ) 0.0 h in
        match acc with
        | Some (_, best_volume, _) when best_volume >= volume -> acc
        | _ when is_damper = wanted -> Some (asn, volume, h)
        | _ -> acc)
      histograms None
  in
  let show kind = function
    | Some (asn, _, h) ->
        let fit = Because_stats.Regression.fit_heights h in
        let score = Because_heuristics.Burst_slope.score_of_histogram h in
        Printf.printf "%s AS (%s): slope=%.2f announcements/bin, score=%.2f\n"
          kind (Asn.to_string asn) fit.Because_stats.Regression.slope score;
        let hist =
          Histogram.of_array ~lo:0.0
            ~hi:(float_of_int (Array.length h))
            ~bins:(Array.length h)
            (Array.concat
               (Array.to_list
                  (Array.mapi
                     (fun i c ->
                       Array.make (int_of_float c) (float_of_int i +. 0.5))
                     h)))
        in
        Printf.printf "  burst bins: %s\n" (Histogram.sparkline hist)
    | None -> Printf.printf "%s AS: none found\n" kind
  in
  show "RFD" (pick true);
  show "non-RFD" (pick false)

(* ------------------------------------------------------------------ *)

let fig11 () =
  Ctx.section "Fig. 11 — posterior mean vs certainty scatter (the U shape)";
  Ctx.paper
    "confident non-dampers top-left, confident dampers top-right, \
     data-starved ASs at the low-certainty base; cut-offs at 0.3/0.7";
  let outcome = Ctx.one_minute () in
  let points = Sc.Report.scatter outcome in
  (* A 20x10 text raster; cells show the dominant category digit. *)
  let columns = 20 and rows = 10 in
  let grid = Array.make_matrix rows columns ' ' in
  List.iter
    (fun (p : Sc.Report.scatter_point) ->
      let column =
        Stdlib.min (columns - 1) (int_of_float (p.Sc.Report.mean *. float_of_int columns))
      in
      let row =
        Stdlib.min (rows - 1)
          (int_of_float (p.Sc.Report.certainty *. float_of_int rows))
      in
      let digit =
        Char.chr (Char.code '0' + Because.Categorize.to_int p.Sc.Report.category)
      in
      grid.(row).(column) <- digit)
    points;
  Printf.printf "certainty ↑ (cell = a present category)\n";
  for row = rows - 1 downto 0 do
    Printf.printf "%4.1f |%s|\n"
      (float_of_int (row + 1) /. float_of_int rows)
      (String.init columns (fun c -> grid.(row).(c)))
  done;
  Printf.printf "      0.0 %s mean p̄ %s 1.0  (cut-offs at 0.3 / 0.7)\n"
    (String.make 3 ' ') (String.make 3 ' ');
  (* Quadrant counts confirm the U shape. *)
  let count f = List.length (List.filter f points) in
  let top_left =
    count (fun p -> p.Sc.Report.mean < 0.3 && p.Sc.Report.certainty > 0.5)
  in
  let top_right =
    count (fun p -> p.Sc.Report.mean > 0.7 && p.Sc.Report.certainty > 0.5)
  in
  let low_base = count (fun p -> p.Sc.Report.certainty <= 0.5) in
  Printf.printf
    "U shape: %d confident non-dampers (top-left), %d confident dampers \
     (top-right), %d low-certainty base\n"
    top_left top_right low_base

(* ------------------------------------------------------------------ *)

let fig12 () =
  Ctx.section "Fig. 12 — share of damping ASs per update interval";
  Ctx.paper
    "deprecated vendor defaults damp up to the 5-minute interval; \
     recommended parameters only at 1-3 minutes; almost nothing at 10/15";
  let outcomes = List.map Ctx.campaign Ctx.intervals_minutes in
  let shares = Sc.Report.interval_shares outcomes in
  Printf.printf "%-10s %12s %12s %10s\n" "interval" "consistent"
    "+inconsistent" "share";
  List.iter
    (fun (s : Sc.Report.interval_share) ->
      Printf.printf "%7.0fmin %12d %12d %9.1f%%\n"
        (s.Sc.Report.interval /. 60.0)
        s.Sc.Report.consistent s.Sc.Report.with_promotions
        (100.0 *. float_of_int s.Sc.Report.with_promotions
        /. float_of_int (max 1 s.Sc.Report.measured)))
    shares;
  match shares with
  | first :: _ ->
      Printf.printf "(ASs measured in all %d campaigns: %d)\n"
        (List.length shares) first.Sc.Report.measured
  | [] -> ()

(* ------------------------------------------------------------------ *)

let fig13 () =
  Ctx.section "Fig. 13 — CDF of re-advertisement delta (max-suppress-times)";
  Ctx.paper
    "plateaus at 10, 30 and 60 minutes expose the configured \
     max-suppress-times; r-delta rarely exceeds 60 minutes";
  let outcome = Ctx.one_minute () in
  let deltas = Sc.Report.damped_path_r_deltas outcome in
  if Array.length deltas = 0 then print_endline "no damped paths"
  else begin
    let minutes = Array.map (fun d -> d /. 60.0) deltas in
    let e = Ecdf.of_array minutes in
    Printf.printf "damped paths: %d\n" (Array.length minutes);
    List.iter
      (fun x -> Printf.printf "  F(%5.1f min) = %4.2f\n" x (Ecdf.eval e x))
      [ 5.0; 9.0; 11.0; 20.0; 25.0; 29.0; 31.0; 45.0; 55.0; 61.0; 70.0 ];
    List.iter
      (fun m ->
        Printf.printf "mass within ±3 min of %2.0f min: %4.1f%%\n" m
          (100.0 *. Sc.Report.plateau_mass deltas ~minutes:m ~tolerance:3.0))
      [ 10.0; 30.0; 60.0 ];
    Printf.printf "share above 65 min: %4.1f%%\n"
      (100.0
      *. float_of_int
           (Array.length (Array.of_list (List.filter (fun d -> d > 65.0) (Array.to_list minutes))))
      /. float_of_int (Array.length minutes))
  end
