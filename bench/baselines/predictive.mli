(** Posterior predictive checks — model criticism for the tomography fit.

    The paper's selling point is calibrated uncertainty; these checks
    quantify it.  For each observed path the posterior predictive probability
    that it shows the property is averaged over draws:

    P(path shows A ∣ D) = E_p[1 − ∏ᵢ qᵢ].

    Comparing these probabilities with the actual labels gives proper scoring
    rules (Brier, log) and a reliability table: a well-calibrated posterior
    puts ~x % of the paths predicted at x % into the positive class. *)

open Because

type path_prediction = {
  path_index : int;     (** Distinct-path index in {!Tomography}. *)
  probability : float;  (** Posterior predictive P(shows property). *)
  n_rfd : int;          (** Observations of the path labeled positive. *)
  n_clean : int;        (** Observations of the path labeled clean. *)
}

type calibration_bin = {
  lo : float;
  hi : float;
  count : int;  (** Observations whose path's prediction falls in the bin. *)
  mean_predicted : float;
  observed_rate : float;
      (** Fraction of the bin's observations labeled positive. *)
}

type t = {
  predictions : path_prediction list;
  brier : float;
      (** Mean squared error of the probabilities over observations; 0 is
          perfect. *)
  log_score : float;
      (** Mean predictive log likelihood per observation; higher is
          better. *)
  calibration : calibration_bin list;
}

val evaluate : ?bins:int -> Infer.result -> t
(** Score the pooled chains against the dataset's own labels ([bins]
    reliability buckets, default 10).  One prediction per distinct path;
    every score and bin weighs it by its label counts, so the figures are
    the per-observation ones. *)

val path_probability :
  Tomography.t -> Because_mcmc.Chain.t -> int -> float
(** Posterior predictive probability for distinct path [j]. *)

val pp_summary : Format.formatter -> t -> unit
