module Rng = Because_stats.Rng
module Dist = Because_stats.Dist
module Special = Because_stats.Special

type result = { chain : Chain.t; acceptance : float }

let grid = 64

let run ~rng ~n_samples ~burn_in target =
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
  (* Prefer the stateful protocol: every grid point is evaluated relative to
     the same cached sufficient statistics, and the chosen value is committed
     once per coordinate.  Fall back to the stateless delta, then to a full
     recompute. *)
  let cache = Option.map (fun mk -> mk current) target.Target.make_cache in
  let delta =
    match cache with
    | Some c -> fun _ i v -> c.Target.cached_delta i v
    | None -> (
        match target.Target.log_density_delta with
        | Some d -> d
        | None ->
            fun p i v ->
              let p' = Target.with_coordinate p i v in
              target.Target.log_density p' -. target.Target.log_density p)
  in
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
  let resample_coordinate i =
    (* Conditional density on the grid, relative to the current value —
       the per-point delta makes the grid sweep O(grid · paths-through-i). *)
    for k = 0 to grid - 1 do
      log_weights.(k) <- delta current i points.(k)
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
    (match cache with Some c -> c.Target.cached_commit i v | None -> ());
    current.(i) <- v;
    cell <> old_cell
  in
  let kept = Chain.Builder.create ~dim ~capacity:n_samples in
  let sweep_idx = ref 0 in
  let moved_sweeps = ref 0 in
  while Chain.Builder.count kept < n_samples do
    let moved = ref false in
    for i = 0 to dim - 1 do
      if resample_coordinate i then moved := true
    done;
    if !moved then incr moved_sweeps;
    if !sweep_idx >= burn_in then Chain.Builder.push kept current;
    incr sweep_idx
  done;
  let acceptance =
    if !sweep_idx = 0 then 0.0
    else float_of_int !moved_sweeps /. float_of_int !sweep_idx
  in
  { chain = Chain.Builder.to_chain kept; acceptance }
