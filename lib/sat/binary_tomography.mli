(** The SAT formulation of binary network tomography (§8, [10]).

    Prior work localises censoring/damping ASs by logical constraints: a
    clean path asserts that {e no} AS on it has the property (unit clauses
    ¬xᵢ), an affected path that {e at least one} does (the clause
    x₁ ∨ … ∨ xₖ).  The paper argues this breaks down in practice — the
    formula has many solutions on sparse data and {e zero} solutions under
    measurement noise or inconsistent deployment (AS 701 damps some paths
    and not others, so its clean paths force ¬x₇₀₁ while a damped path whose
    other members are all exonerated forces x₇₀₁).

    This module encodes a {!Because.Tomography} dataset and reports which of
    the regimes it falls in, so the claim can be measured instead of
    asserted. *)

open Because_bgp

type verdict =
  | Unsat
      (** Contradictory observations: no 0/1 assignment explains the data —
          the paper's "zero valid solutions" regime. *)
  | Unique of Asn.Set.t  (** Exactly one damping set explains the data. *)
  | Multiple of { example : Asn.Set.t; count_at_least : int }
      (** Under-determined: several damping sets fit. *)

val encode : Because.Tomography.t -> int list list
(** CNF over variables 1..n_nodes (variable = node index + 1), one clause
    set per distinct path and label. *)

val solve : ?solution_limit:int -> Because.Tomography.t -> verdict
(** [solution_limit] (default 16) caps the multiplicity enumeration. *)

val pp_verdict : Format.formatter -> verdict -> unit
