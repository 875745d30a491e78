(** Five-level categorisation of the marginal posteriors (Table 1, §5.1.2).

    Categories 1/2 are highly-likely/likely {e not} showing the property,
    3 is uncertain (contradictory or insufficient data), 4/5 are
    likely/highly-likely showing it.  Each marginal receives a flag from its
    mean and a flag from its HDPI, per sampler, and the AS keeps the highest
    flag — the paper's sensitivity-first rule.

    Note on Table 1's HDPI column: the paper lists interval bounds per
    category but the text's intent (confident intervals escalate the flag,
    wide intervals stay uncertain) admits one consistent reading, which we
    implement: an interval entirely below 0.15/0.3 flags 1/2, an interval
    entirely above 0.85/0.7 flags 5/4, anything else flags 3.  See
    DESIGN.md §1. *)

type t = C1 | C2 | C3 | C4 | C5

val to_int : t -> int
val of_int : int -> t
val compare : t -> t -> int
val max_ : t -> t -> t
val pp : Format.formatter -> t -> unit

val of_mean : float -> t
(** Table 1, average column: [0,0.15)→1, [0.15,0.3)→2, [0.3,0.7)→3,
    [0.7,0.85)→4, [0.85,1]→5. *)

val of_hdpi : Because_stats.Hdpi.t -> t

val of_marginal : Posterior.marginal -> t
(** Highest of the mean flag and the HDPI flag. *)

val damping : t -> bool
(** The paper accepts categories 4 and 5 as RFD-enabled. *)

val assign :
  ?min_support:int ->
  ?posterior:Posterior.t ->
  Infer.result ->
  (Because_bgp.Asn.t * t) list
(** Per-AS category: highest flag across the MH and HMC marginals, read
    from [posterior] (default: {!Posterior.summarize}[ result]).

    An AS crossed by fewer than [min_support] observations (default 1 — no
    demotion) is forced to C3: with its feeds truncated by faults there is
    not enough surviving evidence to call it either way.  When every
    sampler was dropped ({!Infer.result}[.runs = \[\]]) all ASs are C3. *)

val insufficient : Infer.result -> min_support:int -> Because_bgp.Asn.t list
(** The ASs {!assign} demotes for lack of evidence, in node order. *)

val shares : t list -> (t * int * float) list
(** Count and share per category (Table 2 rows). *)
