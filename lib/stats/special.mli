(** Special functions needed by the samplers and the likelihood model. *)

val log_gamma : float -> float
(** [log_gamma x] is ln Γ(x) for [x > 0] (Lanczos approximation, absolute
    error below 1e-10 over the range used here). *)

val log_beta : float -> float -> float
(** [log_beta a b] is ln Β(a, b) = ln Γ(a) + ln Γ(b) − ln Γ(a+b). *)

val log1mexp : float -> float
(** [log1mexp x] computes ln(1 − eˣ) accurately for [x < 0].  This is the
    key primitive of the tomography likelihood: the probability that a path
    shows a property is 1 − ∏ qᵢ, evaluated in log space as
    [log1mexp (Σ ln qᵢ)]. *)

val log_sum_exp : float array -> float
(** Numerically stable ln Σ eˣⁱ. *)
