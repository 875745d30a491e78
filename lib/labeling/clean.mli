(** AS-path cleaning (§4.2 of the paper): prepending is removed, looping
    paths are rejected. *)

open Because_bgp

val remove_prepending : Asn.t list -> Asn.t list
(** Collapse consecutive duplicate ASNs. *)

val has_loop : Asn.t list -> bool
(** True when an ASN re-appears non-consecutively (after prepending
    removal). *)

val clean : Asn.t list -> Asn.t list option
(** [Some cleaned] path, or [None] when the path loops. *)
