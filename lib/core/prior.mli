(** Prior distributions over per-AS damping proportions (§3.2).

    The paper tested uniform and Beta priors and found the data dominates for
    most ASs; a good prior mainly sharpens uncertainty quantification.
    {!default} is the U-shaped Jeffreys Beta(½, ½): most ASs either damp a
    session or don't, so mass concentrates near 0 and 1 — this is the prior
    shape recovered for data-starved ASs in Fig. 9(d).

    [Near_zero] is used for nodes known a priori not to show the
    property (the Beacon origin ASs, whose upstreams were verified not to
    damp): implemented as a very sharp Beta towards 0 rather than a true
    point mass so samplers stay ergodic. *)

type t =
  | Uniform
  | Beta of { a : float; b : float }
  | Near_zero  (** Sharp evidence that the node does not show the property. *)

val default : t
(** [Beta {a = 0.5; b = 0.5}]. *)

val beta_params : t -> float * float
(** The prior as Beta(a, b): [Uniform] is Beta(1, 1), [Near_zero] is
    Beta(1, 20). *)

val observe_clean : t -> int -> t
(** [observe_clean t c] is the posterior of [t] after [c] observations
    that show the property did not apply, i.e. [c] factors of qᵢ = 1 − pᵢ:
    Beta(a, b + c) for the {!beta_params} (a, b) of [t], and [t] itself
    when [c = 0]. *)

val log_pdf : t -> float -> float
val grad_log_pdf : t -> float -> float

type density
(** A prior with its Beta normaliser ln B(a, b) computed once.  The
    samplers evaluate the prior of every node on every step; {!log_pdf}
    would recompute the normaliser (three Lanczos log-gammas) each time. *)

val density : t -> density

val log_density : density -> float -> float
(** [log_density (density t) p] is bit-equal to [log_pdf t p]. *)

val grad_log_density : density -> float -> float
(** [grad_log_density (density t) p] is bit-equal to [grad_log_pdf t p]. *)

val pp : Format.formatter -> t -> unit
