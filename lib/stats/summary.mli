(** Descriptive statistics over float arrays. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on empty input. *)

val variance : float array -> float
(** Unbiased sample variance; 0 for fewer than two points. *)

val std : float array -> float
(** Sample standard deviation. *)

val min : float array -> float
val max : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] with [q] in [\[0, 1\]], linear interpolation between order
    statistics (type-7, as in R).  The input is not modified. *)

val median : float array -> float
