open Because_bgp
module Tomography = Because.Tomography

type verdict =
  | Unsat
  | Unique of Asn.Set.t
  | Multiple of { example : Asn.Set.t; count_at_least : int }

(* One clause set per distinct path: repeated observations add nothing to a
   Boolean constraint, and a path labeled both ways yields both its
   positive clause and its unit clauses (hence UNSAT, as it should). *)
let encode data =
  let clauses = ref [] in
  for j = 0 to Tomography.n_paths data - 1 do
    let nodes = Tomography.distinct_path data j in
    if Tomography.n_rfd data j > 0 then
      (* At least one AS on the path has the property. *)
      clauses :=
        Array.to_list (Array.map (fun i -> i + 1) nodes) :: !clauses;
    if Tomography.n_clean data j > 0 then
      (* No AS on the path has it: one unit clause per member. *)
      Array.iter (fun i -> clauses := [ -(i + 1) ] :: !clauses) nodes
  done;
  List.rev !clauses

let model_to_set data model =
  let set = ref Asn.Set.empty in
  for i = 0 to Tomography.n_nodes data - 1 do
    if model.(i + 1) then set := Asn.Set.add (Tomography.node data i) !set
  done;
  !set

let solve ?(solution_limit = 16) data =
  let n_vars = Tomography.n_nodes data in
  let clauses = encode data in
  match Solver.solve ~n_vars clauses with
  | Solver.Unsat -> Unsat
  | Solver.Sat model ->
      let example = model_to_set data model in
      let count =
        Solver.count_solutions ~limit:solution_limit ~n_vars clauses
      in
      if count = 1 then Unique example
      else Multiple { example; count_at_least = count }

let pp_verdict fmt = function
  | Unsat ->
      Format.pp_print_string fmt
        "UNSAT: no consistent damping set explains the observations"
  | Unique set ->
      Format.fprintf fmt "unique solution: {%s}"
        (String.concat ", "
           (List.map Asn.to_string (Asn.Set.elements set)))
  | Multiple { example; count_at_least } ->
      Format.fprintf fmt "at least %d solutions; one example: {%s}"
        count_at_least
        (String.concat ", "
           (List.map Asn.to_string (Asn.Set.elements example)))
