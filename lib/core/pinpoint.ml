open Because_bgp
module Chain = Because_mcmc.Chain

type promotion = {
  asn : Asn.t;
  node : int;
  path_index : int;
  posterior_prob : float;
}

(* Eq. 8's win-share threshold. *)
let threshold = 0.8

let promotions_nonempty ~min_support result ~categories =
  let data = Infer.dataset result in
  (* The pooled draws, read run by run in place: a win count does not
     depend on the order the draws come in. *)
  let chains =
    List.map (fun (r : Infer.sampler_run) -> r.Infer.chain) result.Infer.runs
  in
  let n_draws = List.fold_left (fun n c -> n + Chain.length c) 0 chains in
  let category_of = Hashtbl.create 64 in
  List.iter
    (fun (asn, c) -> Hashtbl.replace category_of asn c)
    categories;
  let flagged i =
    match Hashtbl.find_opt category_of (Tomography.node data i) with
    | Some c -> Categorize.damping c
    | None -> false
  in
  (* Per candidate node: how many unexplained RFD observations it is the
     most likely damper on, and the distinct paths they came from.
     Promotion needs [min_support] observations — one noisy label must not
     be able to promote an AS on its own, while a path observed twice
     counts twice, as two independent measurements. *)
  let support : (int, int * (int * float) list) Hashtbl.t = Hashtbl.create 8 in
  for j = 0 to Tomography.n_paths data - 1 do
    let n_rfd = Tomography.n_rfd data j in
    if n_rfd > 0 then begin
      let nodes = Tomography.distinct_path data j in
      if not (Array.exists flagged nodes) then begin
        (* Count, per node on the path, how often it is the draw's argmax.
           [Chain.value] reads the flat storage in place — no per-draw row
           copy in this O(draws × path length) loop. *)
        let wins = Array.make (Array.length nodes) 0 in
        List.iter
          (fun chain ->
            for k = 0 to Chain.length chain - 1 do
              let best = ref 0 in
              for idx = 0 to Array.length nodes - 1 do
                if
                  Chain.value chain k nodes.(idx)
                  > Chain.value chain k nodes.(!best)
                then best := idx
              done;
              wins.(!best) <- wins.(!best) + 1
            done)
          chains;
        Array.iteri
          (fun idx node ->
            let prob = float_of_int wins.(idx) /. float_of_int n_draws in
            if prob > threshold then begin
              let weight, paths =
                Option.value (Hashtbl.find_opt support node) ~default:(0, [])
              in
              Hashtbl.replace support node (weight + n_rfd, (j, prob) :: paths)
            end)
          nodes
      end
    end
  done;
  let results =
    Hashtbl.fold
      (fun node (weight, paths) acc ->
        if weight >= min_support then begin
          let path_index, posterior_prob =
            List.fold_left
              (fun (bj, bp) (j, p) -> if p > bp then (j, p) else (bj, bp))
              (List.hd paths) (List.tl paths)
          in
          { asn = Tomography.node data node; node; path_index;
            posterior_prob }
          :: acc
        end
        else acc)
      support []
  in
  List.sort (fun a b -> Int.compare a.node b.node) results

let promotions ?(min_support = 2) result ~categories =
  (* No surviving sampler run means no pooled chain to pinpoint from. *)
  if result.Infer.runs = [] then []
  else promotions_nonempty ~min_support result ~categories

let apply categories promotions =
  let promoted =
    List.fold_left
      (fun acc p -> Asn.Set.add p.asn acc)
      Asn.Set.empty promotions
  in
  List.map
    (fun (asn, c) ->
      if Asn.Set.mem asn promoted then (asn, Categorize.max_ c Categorize.C4)
      else (asn, c))
    categories

type pipeline = {
  posterior : Posterior.t;
  step1 : (Asn.t * Categorize.t) list;
  insufficient : Asn.t list;
  promotions : promotion list;
  categories : (Asn.t * Categorize.t) list;
}

let pipeline ~min_path_support result =
  let posterior = Posterior.summarize result in
  let step1 =
    Categorize.assign ~min_support:min_path_support ~posterior result
  in
  let insufficient =
    Categorize.insufficient result ~min_support:min_path_support
  in
  (* An AS demoted for lack of surviving evidence must stay "insufficient
     data", not get promoted back to C4. *)
  let promotions =
    List.filter
      (fun p -> not (List.exists (Asn.equal p.asn) insufficient))
      (promotions result ~categories:step1)
  in
  { posterior; step1; insufficient; promotions;
    categories = apply step1 promotions }

let localize ?infer_span ?categorize_span ?warm_start ~rng ~config
    ~min_path_support observations =
  let data = Tomography.of_observations observations in
  let config =
    match warm_start with
    | None -> config
    | Some init_of ->
        { config with Infer.init = Some (init_of (Tomography.nodes data)) }
  in
  let span name f =
    match name with
    | None -> f ()
    | Some name ->
        Because_telemetry.Registry.Span.with_ config.Infer.telemetry ~name f
  in
  let result = span infer_span (fun () -> Infer.run ~rng ~config data) in
  (result, span categorize_span (fun () -> pipeline ~min_path_support result))

let assign_with_pinpointing result =
  (pipeline ~min_path_support:1 result).categories
