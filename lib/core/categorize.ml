module Hdpi = Because_stats.Hdpi

type t = C1 | C2 | C3 | C4 | C5

let to_int = function C1 -> 1 | C2 -> 2 | C3 -> 3 | C4 -> 4 | C5 -> 5

let of_int = function
  | 1 -> C1
  | 2 -> C2
  | 3 -> C3
  | 4 -> C4
  | 5 -> C5
  | n -> invalid_arg ("Categorize.of_int: " ^ string_of_int n)

let compare a b = Int.compare (to_int a) (to_int b)
let max_ a b = if compare a b >= 0 then a else b
let pp fmt t = Format.fprintf fmt "Category %d" (to_int t)

let of_mean mean =
  if mean < 0.15 then C1
  else if mean < 0.3 then C2
  else if mean < 0.7 then C3
  else if mean < 0.85 then C4
  else C5

let of_hdpi (interval : Hdpi.t) =
  if interval.Hdpi.hi < 0.15 then C1
  else if interval.Hdpi.hi < 0.3 then C2
  else if interval.Hdpi.lo >= 0.85 then C5
  else if interval.Hdpi.lo >= 0.7 then C4
  else C3

let of_marginal (m : Posterior.marginal) =
  max_ (of_mean m.Posterior.mean) (of_hdpi m.Posterior.hdpi)

let damping = function C4 | C5 -> true | C1 | C2 | C3 -> false

let insufficient result ~min_support =
  let data = Infer.dataset result in
  List.filter_map
    (fun i ->
      if Tomography.support data i < min_support then
        Some (Tomography.node data i)
      else None)
    (List.init (Tomography.n_nodes data) Fun.id)

let assign ?(min_support = 1) ?posterior result =
  let data = Infer.dataset result in
  let n = Tomography.n_nodes data in
  let per_sampler =
    match posterior with
    | Some p -> p.Posterior.runs
    | None -> Posterior.per_sampler result
  in
  (* No surviving sampler run means no posterior at all: everything is
     uncertain, not "highly likely clean". *)
  let best = Array.make n (if per_sampler = [] then C3 else C1) in
  List.iter
    (fun (_, marginals) ->
      Array.iteri
        (fun i m -> best.(i) <- max_ best.(i) (of_marginal m))
        marginals)
    per_sampler;
  List.init n (fun i ->
      let cat =
        if Tomography.support data i < min_support then C3 else best.(i)
      in
      (Tomography.node data i, cat))

let shares categories =
  let total = List.length categories in
  List.map
    (fun c ->
      let count =
        List.length (List.filter (fun x -> compare x c = 0) categories)
      in
      let share =
        if total = 0 then 0.0
        else float_of_int count /. float_of_int total
      in
      (c, count, share))
    [ C1; C2; C3; C4; C5 ]
