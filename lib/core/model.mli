(** The BeCAUSe likelihood model (§3.1, equations 4–6, and the §7.2
    false-negative extension).

    Each AS [i] applies the property to a proportion [pᵢ] of routes
    ([qᵢ = 1 − pᵢ]).  A path shows the property unless every AS on it stays
    silent, so

    - P(path ∣ p) = ∏ᵢ qᵢ            if the path does {e not} show it,
    - P(path ∣ p) = 1 − ∏ᵢ qᵢ        if it does,

    and the data likelihood is the product over observations.  Everything
    is computed in log space with Sⱼ = Σᵢ ln qᵢ.  Observations of the same
    path share Sⱼ, so the likelihood is a sum over the dataset's distinct
    paths ({!Tomography}), each weighted by its label counts:

    ln L = Σⱼ n_rfdⱼ · (ln(1 − ε) + ln(1 − e^{Sⱼ}))
         + n_cleanⱼ · ln(ε + (1 − ε)·e^{Sⱼ}),

    with ln(1 − e^{S}) evaluated by [log1mexp] and ε the false-negative
    rate (0 by default, where the clean term is just Sⱼ).  A path seen
    with both labels pays both terms.  Each ln qᵢ is computed once per
    node, so an evaluation costs O(V + total distinct-path length).

    The model exposes the joint log posterior, its analytic gradient (for
    HMC), and a single-site delta that touches only the paths through the
    changed AS (for single-site MH). *)

type t

val create :
  ?prior:Prior.t ->
  ?node_priors:(Because_bgp.Asn.t * Prior.t) list ->
  ?false_negative_rate:float ->
  Tomography.t ->
  t
(** [node_priors] overrides the shared [prior] (default {!Prior.default})
    for specific ASs — e.g. {!Prior.Near_zero} for Beacon origins.

    [false_negative_rate] implements the §7.2 extension: with probability ε
    a path that does show the property is recorded as clean (e.g. the
    re-advertisement was lost to a session reset), so

    - P(labeled positive ∣ p) = (1 − ε)·(1 − ∏ qᵢ),
    - P(labeled clean ∣ p)   = ∏ qᵢ + ε·(1 − ∏ qᵢ).

    The default ε = 0 recovers the paper's base model exactly. *)

val dataset : t -> Tomography.t

val log_likelihood : t -> float array -> float
val log_prior : t -> float array -> float
val log_posterior : t -> float array -> float

val grad_log_posterior : t -> float array -> float array

val delta_log_posterior : t -> float array -> int -> float -> float
(** [delta_log_posterior m p i v] = log posterior with [p.(i) = v] minus the
    log posterior at [p], computed from only the paths through node [i].
    Stateless: re-sums Sⱼ over every affected path at both points.  Kept as
    the reference implementation the cached protocol is tested against. *)

val make_cache : t -> float array -> Because_mcmc.Target.cache
(** [make_cache m p0] builds the incremental evaluator positioned at [p0]:
    per-distinct-path running sums Sⱼ = Σ ln qᵢ and count-weighted
    log-probability terms, so a single-site delta costs O(1) per affected
    distinct path ([log1p(−v) − log1p(−pᵢ)] shifts every Sⱼ alike) and a
    rejection costs nothing.  Its checkpoint state
    ([cached_state]/[cached_restore]) is the point followed by the U sums;
    restoring a state of any other length raises [Invalid_argument].
    Agrees with {!delta_log_posterior} to ≲1e-9 (property
    tested). *)

val target : ?cached:bool -> t -> Because_mcmc.Target.t
(** Package as an MCMC target on the unit box with gradient, delta and
    (unless [~cached:false]) the incremental cache protocol.
    [~cached:false] is the reference configuration: samplers then fall back
    to the stateless [delta_log_posterior] path — used by the equivalence
    tests and the paired bench measurements. *)
