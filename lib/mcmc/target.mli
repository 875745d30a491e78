(** Inference targets: unnormalised log posterior densities.

    A target bundles everything a sampler may exploit: the joint log density,
    optionally its gradient (for HMC), and optionally a cheap single-site
    update rule (for single-site Metropolis–Hastings — the tomography
    likelihood factorises over paths, so changing one coordinate only touches
    the paths through that AS). *)

type support =
  | Unit_interval  (** Every coordinate lives on (0, 1), e.g. damping proportions. *)
  | Unbounded      (** Coordinates on ℝ. *)

type cache = {
  cached_delta : int -> float -> float;
      (** [cached_delta i v] = log density with coordinate [i] set to [v]
          minus the log density at the cache's current point. *)
  cached_commit : int -> float -> unit;
      (** [cached_commit i v] accepts the proposal: moves the cache's current
          point to coordinate [i] = [v] and updates the sufficient
          statistics.  Rejections need no call — they are free. *)
  cached_state : unit -> float array;
      (** Exact internal state as a flat float vector (current point plus
          the incrementally-accumulated sufficient statistics).  Incremental
          statistics drift from freshly-recomputed ones in the last ulp, so
          checkpoints must carry this vector rather than rebuild — that is
          what keeps a resumed chain bit-for-bit on the original
          trajectory. *)
  cached_restore : float array -> unit;
      (** Inverse of [cached_state] for the same cache implementation:
          overwrite the internal state with a previously exported vector.
          Pure derived quantities are recomputed from the restored state.
          Raises [Invalid_argument] when the vector has the wrong size. *)
}
(** Stateful single-site evaluation protocol.  A cache owns a private copy
    of the current point plus whatever per-observation sufficient statistics
    make [cached_delta] O(observations-through-i) with O(1) work per
    observation (for the tomography likelihood: the per-path running sums
    Sⱼ = Σ ln qᵢ).  Single-site samplers drive it as
    [delta → (accept? commit : nothing)]. *)

type t = {
  dim : int;
  support : support;
  log_density : float array -> float;
      (** Unnormalised log posterior at a point.  May return [neg_infinity]
          outside the support. *)
  grad_log_density : (float array -> float array) option;
      (** Gradient of [log_density]; required by {!Hmc}. *)
  log_density_delta : (float array -> int -> float -> float) option;
      (** [delta p i v] = log_density with coordinate [i] set to [v] minus
          log_density at [p].  Enables O(paths-through-i) single-site MH.
          Stateless reference implementation; kept alongside [make_cache]
          so the cached fast path can always be cross-checked. *)
  make_cache : (float array -> cache) option;
      (** [make_cache p0] builds a stateful evaluator positioned at [p0].
          {!Metropolis.run_single_site} and the Gibbs baseline evaluate only
          through {!cache_at}, which prefers it over the generic cache. *)
}

val create :
  ?grad:(float array -> float array) ->
  ?delta:(float array -> int -> float -> float) ->
  ?cache:(float array -> cache) ->
  dim:int ->
  support:support ->
  (float array -> float) ->
  t

val cache_at : t -> float array -> cache
(** The target's own cache when it has one, else a generic fallback that
    tracks the point and answers deltas via [log_density_delta] (or a full
    recompute).  Committing the value just probed reuses that probe's
    delta, so single-site MH evaluates each proposal once.  Always safe;
    only as fast as the pieces it wraps. *)

val with_coordinate : float array -> int -> float -> float array
(** Functional single-coordinate update (copies). *)

val check_gradient :
  t -> at:float array -> eps:float -> tol:float -> (unit, string) result
(** Finite-difference validation of [grad_log_density]; used by the tests. *)
