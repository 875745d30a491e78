(** Inter-AS routing policy: Gao–Rexford preferences, valley-free export, and
    per-neighbor RFD scoping.

    [relationship] is the role of the {e neighbor} relative to the local AS:
    a [Customer] neighbor pays us; a [Provider] neighbor is paid by us. *)

type relationship = Customer | Peer | Provider

val relationship_equal : relationship -> relationship -> bool
val pp_relationship : Format.formatter -> relationship -> unit

val flip : relationship -> relationship
(** The relationship as seen from the other end of the link. *)

val local_pref : relationship -> int
(** Customer routes (300) over peer routes (200) over provider routes
    (100). *)

val export_ok : learned_from:relationship option -> towards:relationship -> bool
(** Valley-free export: self-originated ([learned_from = None]) and
    customer-learned routes go to everyone; peer- and provider-learned routes
    go only to customers. *)

(** Where an AS applies Route Flap Damping.  The paper (§2.1) observes that
    operators often restrict RFD to a subset of sessions — e.g. only
    customers, or all neighbors except one (Verizon's AS 701 damps all
    neighbors except AS 2497). *)
type rfd_scope =
  | No_rfd
  | All_neighbors
  | Only_customers
  | Only_neighbors of Asn.Set.t
  | All_except of Asn.Set.t

val rfd_applies :
  rfd_scope -> neighbor:Asn.t -> relationship:relationship -> bool
(** Does this AS damp updates received on the session to [neighbor]? *)

val scope_is_damping : rfd_scope -> bool
(** [true] iff the scope damps at least one potential session. *)
