type relationship = Customer | Peer | Provider

let relationship_equal a b =
  match (a, b) with
  | Customer, Customer | Peer, Peer | Provider, Provider -> true
  | (Customer | Peer | Provider), _ -> false

let pp_relationship fmt = function
  | Customer -> Format.pp_print_string fmt "customer"
  | Peer -> Format.pp_print_string fmt "peer"
  | Provider -> Format.pp_print_string fmt "provider"

let flip = function
  | Customer -> Provider
  | Provider -> Customer
  | Peer -> Peer

let local_pref = function Customer -> 300 | Peer -> 200 | Provider -> 100

let export_ok ~learned_from ~towards =
  match learned_from with
  | None -> true
  | Some Customer -> true
  | Some (Peer | Provider) -> (
      match towards with Customer -> true | Peer | Provider -> false)

type rfd_scope =
  | No_rfd
  | All_neighbors
  | Only_customers
  | Only_neighbors of Asn.Set.t
  | All_except of Asn.Set.t

let rfd_applies scope ~neighbor ~relationship =
  match scope with
  | No_rfd -> false
  | All_neighbors -> true
  | Only_customers -> relationship_equal relationship Customer
  | Only_neighbors set -> Asn.Set.mem neighbor set
  | All_except set -> not (Asn.Set.mem neighbor set)

let scope_is_damping = function
  | No_rfd -> false
  | All_neighbors | Only_customers -> true
  | Only_neighbors set -> not (Asn.Set.is_empty set)
  | All_except _ -> true
