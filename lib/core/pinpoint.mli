(** Step 2 of the identification procedure (§5.1.2): ASs that damp
    inconsistently.

    Every path labeled RFD must contain at least one damping AS, yet an AS
    that damps only some neighbors (Verizon's AS 701) can end up with a low
    mean and no Category 4/5 flag.  For each RFD path without a flagged AS we
    compute, over the posterior draws, the probability that a given AS has
    the largest damping proportion on that path; if one AS exceeds the 0.8
    threshold (eq. 8 — written there as the argmin over the complementary
    qᵢ), it is promoted to Category 4. *)

open Because_bgp

type promotion = {
  asn : Asn.t;
  node : int;
  path_index : int;
      (** The unexplained RFD path that triggered it (a distinct-path index
          of {!Tomography}). *)
  posterior_prob : float; (** P(this AS is the path's most likely damper). *)
}

val promotions :
  ?min_support:int ->
  Infer.result ->
  categories:(Asn.t * Categorize.t) list ->
  promotion list
(** ASs to promote to Category 4: an AS wins a draw on a path when it has
    the draw's largest damping proportion, and it is promoted when its win
    share exceeds 0.8 (eq. 8) on unexplained RFD paths carrying at least
    [min_support] observations in total (a path observed twice counts
    twice).  [min_support] defaults to 2: the paper promotes from a single
    path, but in a simulated world the convergence noise that follows a
    release is perfectly repeatable, so a single mislabeled path would
    promote an innocent AS.  Genuinely inconsistent dampers sit on many
    damped paths, so this only filters noise (DESIGN.md §1).

    Uses the pooled chain of all samplers.  Each returned promotion cites
    its strongest supporting path.  Returns [\[\]] when the result carries
    no sampler runs (all dropped after divergence). *)

val apply :
  (Asn.t * Categorize.t) list -> promotion list -> (Asn.t * Categorize.t) list
(** Raise promoted ASs to at least Category 4. *)

type pipeline = {
  posterior : Posterior.t;
      (** The result's one {!Posterior.summarize}: step 1 reads it, and so
          can whatever reports the estimates. *)
  step1 : (Asn.t * Categorize.t) list;  (** {!Categorize.assign}'s flags. *)
  insufficient : Asn.t list;  (** {!Categorize.insufficient}. *)
  promotions : promotion list;
      (** {!promotions} minus the insufficient ASs: an AS demoted for lack
          of evidence is never promoted back to C4. *)
  categories : (Asn.t * Categorize.t) list;
      (** [step1] with [promotions] applied. *)
}

val pipeline : min_path_support:int -> Infer.result -> pipeline
(** The full two-step identification procedure: Table-1 flags with
    [min_path_support] as {!Categorize.assign}'s [min_support], then the
    eq. 8 {!promotions} at their defaults. *)

val localize :
  ?infer_span:string ->
  ?categorize_span:string ->
  ?warm_start:(Asn.t array -> float array) ->
  rng:Because_stats.Rng.t ->
  config:Infer.config ->
  min_path_support:int ->
  (Asn.t list * bool) list ->
  Infer.result * pipeline
(** The localization every campaign, streaming epoch and [because infer]
    runs (§3.2, §5.1.2): {!Infer.run} on the {!Tomography} of the
    (non-empty) [observations], then {!pipeline}.  The spans, when named,
    wrap each step on [config.telemetry]; [warm_start] maps the node order
    to the chains' start, replacing [config.init]. *)

val assign_with_pinpointing : Infer.result -> (Asn.t * Categorize.t) list
(** [(pipeline ~min_path_support:1 result).categories]: no AS is demoted. *)
