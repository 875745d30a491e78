(** The binary network tomography dataset (§2.3 of the paper).

    Observations are [(AS path, shows-property)] pairs.  The likelihood
    depends on them only through each distinct AS path and how many times
    it was labeled positive or clean, so the dataset stores exactly that:

    - every AS on any path, numbered [0 .. n_nodes − 1] in order of first
      appearance;
    - the U distinct paths (equal AS sequences), numbered [0 .. n_paths − 1]
      in order of first appearance, as one flat node-index array with
      per-path offsets;
    - per distinct path, its positive count {!n_rfd} and clean count
      {!n_clean} — a path observed with both labels carries both;
    - the node → distinct-path incidence, also flat with offsets, which is
      what makes single-site likelihood updates cheap.

    Collapsing loses no evidence: each observation is still an independent
    measurement, and every count-based quantity ({!support},
    {!rfd_path_count}, {!positive_share}, the likelihood in {!Model})
    weighs a distinct path by how often it was observed.  Without
    duplicates the distinct paths are the observations, in their order. *)

open Because_bgp

type t

val of_observations : (Asn.t list * bool) list -> t
(** Build from labeled paths.  Duplicate observations are counted, not
    dropped; empty paths are rejected. *)

val positive_part : t -> t * int array
(** [positive_part t] is the dataset of the distinct paths of [t] with a
    positive count, each keeping its {!n_rfd} and with no clean count,
    over the nodes those paths cross; with it, for each of its node
    indices, the index of the same AS in [t].  Nodes and paths keep their
    order in [t], so that map ascends.
    @raise Invalid_argument when no observation is positive. *)

val n_nodes : t -> int

val n_paths : t -> int
(** U, the number of distinct paths. *)

val n_observations : t -> int
(** N, the number of observations (U ≤ N). *)

val node : t -> int -> Asn.t
(** ASN of node index [i]. *)

val index_of : t -> Asn.t -> int option

val nodes : t -> Asn.t array

val path_offsets : t -> int array
(** U + 1 offsets into {!path_nodes}: distinct path [j] is
    [path_nodes.(path_offsets.(j)) .. path_nodes.(path_offsets.(j+1) − 1)].
    Shared with the dataset — read only. *)

val path_nodes : t -> int array
(** Node indices of every distinct path, concatenated.  Read only. *)

val distinct_path : t -> int -> int array
(** Fresh copy of the node indices of distinct path [j]. *)

val n_rfd : t -> int -> int
(** How many observations of distinct path [j] show the property (e.g.
    were labeled RFD). *)

val n_clean : t -> int -> int
(** How many observations of distinct path [j] were labeled clean. *)

val through_offsets : t -> int array
(** V + 1 offsets into {!through_paths}: the distinct paths through node
    [i], ascending, are
    [through_paths.(through_offsets.(i)) .. through_paths.(through_offsets.(i+1) − 1)].
    Read only. *)

val through_paths : t -> int array
(** Distinct-path indices of the incidence, concatenated.  Read only. *)

val paths_through : t -> int -> int array
(** Fresh copy of the distinct paths containing node [i], ascending. *)

val support : t -> int -> int
(** Number of observations crossing node [i] — how much evidence the
    posterior for that AS rests on.  Fault-truncated feeds lower it. *)

val rfd_path_count : t -> int
(** Number of positive observations. *)

val positive_share : t -> float
(** Fraction of observations labeled positive (18 % in the paper's RFD
    data, 90 % in the ROV data). *)
