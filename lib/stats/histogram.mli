(** Fixed-bin histograms.

    Used for the marginal-posterior pictures (Fig. 9), the Burst announcement
    distributions (Fig. 10), and general reporting. *)

type t = {
  lo : float;            (** Inclusive lower edge of the first bin. *)
  hi : float;            (** Exclusive upper edge of the last bin. *)
  counts : int array;    (** One count per bin. *)
  total : int;           (** Number of in-range observations. *)
}

val create : lo:float -> hi:float -> bins:int -> t
(** Empty histogram with [bins] equal-width bins over [\[lo, hi)]. *)

val of_array : lo:float -> hi:float -> bins:int -> float array -> t
(** Values outside [\[lo, hi)] are clamped into the first/last bin
    (posterior samples live on a known support, so clamping only absorbs
    floating-point edge cases). *)

val bin_width : t -> float

val densities : t -> float array
(** Counts normalised so the histogram integrates to 1. *)

val sparkline : t -> string
(** Compact unicode bar rendering for terminal output. *)
