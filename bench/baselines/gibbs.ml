open Because_mcmc
module Rng = Because_stats.Rng
module Dist = Because_stats.Dist
module Special = Because_stats.Special

type result = Driver.result = { chain : Chain.t; acceptance : float }

let grid = 64

let start target =
  (match target.Target.support with
  | Target.Unit_interval -> ()
  | Target.Unbounded ->
      invalid_arg "Gibbs.run: requires a unit-interval target");
  let dim = target.Target.dim in
  let current = Array.make dim 0.5 in
  (* Grid cell centres on (0, 1). *)
  let points =
    Array.init grid (fun k -> (float_of_int k +. 0.5) /. float_of_int grid)
  in
  let log_weights = Array.make grid 0.0 in
  (* Every grid point is evaluated relative to the same cached sufficient
     statistics, and the chosen value is committed once per coordinate. *)
  let cache = Target.cache_at target current in
  (* Grid cell containing a value — the movement criterion below compares
     cells, not jittered values, so intra-cell jitter does not count as a
     state change. *)
  let cell_of v =
    max 0 (min (grid - 1) (int_of_float (v *. float_of_int grid)))
  in
  (* Scratch arena: one weights buffer reused for every coordinate update
     instead of a fresh [Array.map] per update (grid words × dim × sweeps
     of garbage in the old code). *)
  let weights = Array.make grid 0.0 in
  let resample_coordinate rng i =
    (* Conditional density on the grid, relative to the current value —
       the per-point delta makes the grid sweep O(grid · paths-through-i). *)
    for k = 0 to grid - 1 do
      log_weights.(k) <- cache.Target.cached_delta i points.(k)
    done;
    let log_norm = Special.log_sum_exp log_weights in
    for k = 0 to grid - 1 do
      weights.(k) <- Float.exp (log_weights.(k) -. log_norm)
    done;
    let old_cell = cell_of current.(i) in
    let cell = Dist.categorical rng weights in
    (* Jitter within the chosen cell to avoid a lattice-valued chain. *)
    let width = 1.0 /. float_of_int grid in
    let v = points.(cell) +. ((Rng.float rng -. 0.5) *. width) in
    let v = Float.max 1e-9 (Float.min (1.0 -. 1e-9) v) in
    cache.Target.cached_commit i v;
    current.(i) <- v;
    cell <> old_cell
  in
  let advance rng ~in_burn_in:_ ~sweep:_ =
    let moved = ref false in
    for i = 0 to dim - 1 do
      if resample_coordinate rng i then moved := true
    done;
    if !moved then 1 else 0
  in
  { Driver.dim; log_density = target.Target.log_density current;
    proposals = 1; advance; draw = (fun () -> current); save = ignore }

let run ~rng ~n_samples ~burn_in target =
  Driver.run ~name:"Gibbs.run" ~rng ~n_samples ~burn_in (start target)
