open Because_bgp

type tier = Tier1 | Transit | Stub

(* Compact interned adjacency.  ASNs are interned to dense ids at
   registration; tiers and adjacency live in flat arrays indexed by id, and
   each adjacency entry packs (neighbor id, relationship) into one
   immediate int — [(id lsl 2) lor rel].  At 10k+ ASs this replaces a
   Hashtbl of boxed (Asn.t * relationship) list refs with a handful of flat
   arrays: one hash lookup per public call, then pure array walks. *)

module Itbl = Hashtbl.Make (struct
  type t = Asn.t

  let equal = Asn.equal
  let hash a = Asn.to_int a * 0x9E3779B1 land max_int
end)

let rel_code = function
  | Policy.Customer -> 0
  | Policy.Peer -> 1
  | Policy.Provider -> 2

let code_rel = function
  | 0 -> Policy.Customer
  | 1 -> Policy.Peer
  | _ -> Policy.Provider

type t = {
  ids : int Itbl.t;              (* ASN -> dense id *)
  mutable asns : Asn.t array;    (* id -> ASN, registration order *)
  mutable tiers : tier array;    (* id -> tier *)
  mutable n : int;               (* registered ASs *)
  mutable adj : int array array; (* id -> packed entries, append order *)
  mutable adj_len : int array;   (* id -> used entries of adj.(id) *)
  mutable n_links : int;
}

let create () =
  {
    ids = Itbl.create 128;
    asns = Array.make 64 (Asn.of_int 0);
    tiers = Array.make 64 Stub;
    n = 0;
    adj = Array.make 64 [||];
    adj_len = Array.make 64 0;
    n_links = 0;
  }

let grow_nodes t =
  let cap = Array.length t.asns in
  if t.n = cap then begin
    let cap' = 2 * cap in
    let asns' = Array.make cap' (Asn.of_int 0) in
    Array.blit t.asns 0 asns' 0 cap;
    t.asns <- asns';
    let tiers' = Array.make cap' Stub in
    Array.blit t.tiers 0 tiers' 0 cap;
    t.tiers <- tiers';
    let adj' = Array.make cap' [||] in
    Array.blit t.adj 0 adj' 0 cap;
    t.adj <- adj';
    let len' = Array.make cap' 0 in
    Array.blit t.adj_len 0 len' 0 cap;
    t.adj_len <- len'
  end

let add_as t asn tier =
  if Itbl.mem t.ids asn then
    invalid_arg ("Graph.add_as: duplicate " ^ Asn.to_string asn);
  grow_nodes t;
  Itbl.replace t.ids asn t.n;
  t.asns.(t.n) <- asn;
  t.tiers.(t.n) <- tier;
  t.adj.(t.n) <- [||];
  t.adj_len.(t.n) <- 0;
  t.n <- t.n + 1

let id_exn t asn =
  match Itbl.find_opt t.ids asn with
  | Some i -> i
  | None -> invalid_arg ("Graph: unknown AS " ^ Asn.to_string asn)

let mem_entry t i j =
  let a = t.adj.(i) and len = t.adj_len.(i) in
  let rec scan k = k < len && (a.(k) lsr 2 = j || scan (k + 1)) in
  scan 0

let append_entry t i packed =
  let a = t.adj.(i) and len = t.adj_len.(i) in
  let a =
    if len = Array.length a then begin
      let a' = Array.make (max 4 (2 * len)) 0 in
      Array.blit a 0 a' 0 len;
      t.adj.(i) <- a';
      a'
    end
    else a
  in
  a.(len) <- packed;
  t.adj_len.(i) <- len + 1

let has_link t a b = mem_entry t (id_exn t a) (id_exn t b)

let add_edge t a b rel_of_b_for_a =
  if Asn.equal a b then invalid_arg "Graph: self link";
  let ia = id_exn t a and ib = id_exn t b in
  if mem_entry t ia ib then invalid_arg "Graph: duplicate link";
  append_entry t ia ((ib lsl 2) lor rel_code rel_of_b_for_a);
  append_entry t ib ((ia lsl 2) lor rel_code (Policy.flip rel_of_b_for_a));
  t.n_links <- t.n_links + 1

let add_customer_link t ~provider ~customer =
  (* From the provider's viewpoint the neighbor is a customer. *)
  add_edge t provider customer Policy.Customer

let add_peer_link t a b = add_edge t a b Policy.Peer

let ases t = Array.to_list (Array.sub t.asns 0 t.n)
let size t = t.n
let link_count t = t.n_links

let tier_of t asn = t.tiers.(id_exn t asn)

(* Newest link first, exactly the historical cons order: router configs —
   and through them the whole event stream — depend on it. *)
let neighbors t asn =
  let i = id_exn t asn in
  let a = t.adj.(i) and len = t.adj_len.(i) in
  let acc = ref [] in
  for k = 0 to len - 1 do
    let e = a.(k) in
    acc := (t.asns.(e lsr 2), code_rel (e land 3)) :: !acc
  done;
  !acc

let links t =
  let acc = ref [] in
  for i = 0 to t.n - 1 do
    let a = t.adj.(i) and len = t.adj_len.(i) in
    let asn_i = t.asns.(i) in
    for k = 0 to len - 1 do
      let j = a.(k) lsr 2 in
      let asn_j = t.asns.(j) in
      if Asn.compare asn_i asn_j < 0 then acc := (asn_i, asn_j) :: !acc
    done
  done;
  !acc

let degree t asn = t.adj_len.(id_exn t asn)

let customer_cone_size t asn =
  let seen = Bytes.make t.n '\000' in
  let count = ref 0 in
  let stack = ref [ id_exn t asn ] in
  let visit j =
    if Bytes.get seen j = '\000' then begin
      Bytes.set seen j '\001';
      incr count;
      stack := j :: !stack
    end
  in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        let a = t.adj.(i) and len = t.adj_len.(i) in
        for k = 0 to len - 1 do
          let e = a.(k) in
          if e land 3 = 0 (* Customer *) then visit (e lsr 2)
        done
  done;
  !count

