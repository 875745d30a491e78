open Because_bgp

type t = {
  node_of_index : Asn.t array;
  index_of_node : int Asn.Map.t;
  path_offsets : int array;  (* U + 1 entries *)
  path_nodes : int array;    (* node indices of every distinct path, flat *)
  n_rfd : int array;
  n_clean : int array;
  through_offsets : int array;  (* V + 1 entries *)
  through_paths : int array;    (* distinct paths through each node, flat *)
  support : int array;
  n_observations : int;
}

(* The count table from interned paths: [paths.(j)] is the node indices of
   distinct path j, [n_rfd]/[n_clean] its label counts. *)
let build ~node_of_index ~index_of_node ~paths ~n_rfd ~n_clean ~n_observations
    =
  let n_paths = Array.length paths and n_nodes = Array.length node_of_index in
  let path_offsets = Array.make (n_paths + 1) 0 in
  Array.iteri
    (fun j p -> path_offsets.(j + 1) <- path_offsets.(j) + Array.length p)
    paths;
  let path_nodes = Array.concat (Array.to_list paths) in
  (* Node → distinct-path incidence in CSR form, paths ascending.  A node
     listed twice on one path (cleaning removes such prepending, but stay
     defensive) is entered once: [last.(i)] is the last path that entered
     node [i]. *)
  let last = Array.make n_nodes (-1) in
  let through_offsets = Array.make (n_nodes + 1) 0 in
  let each_incidence f =
    Array.fill last 0 n_nodes (-1);
    Array.iteri
      (fun j p ->
        Array.iter
          (fun i ->
            if last.(i) <> j then begin
              last.(i) <- j;
              f i j
            end)
          p)
      paths
  in
  each_incidence (fun i _ ->
      through_offsets.(i + 1) <- through_offsets.(i + 1) + 1);
  for i = 0 to n_nodes - 1 do
    through_offsets.(i + 1) <- through_offsets.(i + 1) + through_offsets.(i)
  done;
  let through_paths = Array.make through_offsets.(n_nodes) 0 in
  let fill = Array.sub through_offsets 0 n_nodes in
  let support = Array.make n_nodes 0 in
  each_incidence (fun i j ->
      through_paths.(fill.(i)) <- j;
      fill.(i) <- fill.(i) + 1;
      support.(i) <- support.(i) + n_rfd.(j) + n_clean.(j));
  { node_of_index; index_of_node; path_offsets; path_nodes; n_rfd; n_clean;
    through_offsets; through_paths; support; n_observations }

let of_observations observations =
  if observations = [] then
    invalid_arg "Tomography.of_observations: no observations";
  List.iter
    (fun (path, _) ->
      if path = [] then
        invalid_arg "Tomography.of_observations: empty path")
    observations;
  (* Nodes and distinct paths are numbered in order of first appearance, so
     the numbering is deterministic and a duplicate-free input keeps its
     observation order. *)
  let index_of_node = ref Asn.Map.empty in
  let rev_nodes = ref [] in
  let n = ref 0 in
  let index_of asn =
    match Asn.Map.find_opt asn !index_of_node with
    | Some i -> i
    | None ->
        let i = !n in
        index_of_node := Asn.Map.add asn i !index_of_node;
        rev_nodes := asn :: !rev_nodes;
        incr n;
        i
  in
  let path_id : (Asn.t list, int) Hashtbl.t = Hashtbl.create 64 in
  let rev_paths = ref [] in
  let ids =
    List.map
      (fun (path, label) ->
        match Hashtbl.find_opt path_id path with
        | Some j -> (j, label)
        | None ->
            let j = Hashtbl.length path_id in
            Hashtbl.add path_id path j;
            rev_paths := Array.of_list (List.map index_of path) :: !rev_paths;
            (j, label))
      observations
  in
  let paths = Array.of_list (List.rev !rev_paths) in
  let n_rfd = Array.make (Array.length paths) 0 in
  let n_clean = Array.make (Array.length paths) 0 in
  List.iter
    (fun (j, label) ->
      if label then n_rfd.(j) <- n_rfd.(j) + 1
      else n_clean.(j) <- n_clean.(j) + 1)
    ids;
  build
    ~node_of_index:(Array.of_list (List.rev !rev_nodes))
    ~index_of_node:!index_of_node ~paths ~n_rfd ~n_clean
    ~n_observations:(List.length observations)

(* Kept nodes and kept paths keep their relative order, so the map from a
   new node index to the old one ascends. *)
let positive_part t =
  let positive =
    List.filter
      (fun j -> t.n_rfd.(j) > 0)
      (List.init (Array.length t.n_rfd) Fun.id)
  in
  if positive = [] then
    invalid_arg "Tomography.positive_part: no positive observation";
  (* -1 for a node on no positive path; its new index otherwise. *)
  let renumber = Array.make (Array.length t.node_of_index) (-1) in
  List.iter
    (fun j ->
      for m = t.path_offsets.(j) to t.path_offsets.(j + 1) - 1 do
        renumber.(t.path_nodes.(m)) <- 0
      done)
    positive;
  let rev_kept = ref [] and n_kept = ref 0 in
  Array.iteri
    (fun i r ->
      if r = 0 then begin
        renumber.(i) <- !n_kept;
        rev_kept := i :: !rev_kept;
        incr n_kept
      end)
    renumber;
  let kept = Array.of_list (List.rev !rev_kept) in
  let node_of_index = Array.map (fun i -> t.node_of_index.(i)) kept in
  let index_of_node = ref Asn.Map.empty in
  Array.iteri
    (fun k asn -> index_of_node := Asn.Map.add asn k !index_of_node)
    node_of_index;
  let paths =
    Array.of_list
      (List.map
         (fun j ->
           Array.map (fun i -> renumber.(i))
             (Array.sub t.path_nodes t.path_offsets.(j)
                (t.path_offsets.(j + 1) - t.path_offsets.(j))))
         positive)
  in
  let n_rfd = Array.of_list (List.map (fun j -> t.n_rfd.(j)) positive) in
  ( build ~node_of_index ~index_of_node:!index_of_node ~paths ~n_rfd
      ~n_clean:(Array.make (Array.length paths) 0)
      ~n_observations:(Array.fold_left ( + ) 0 n_rfd),
    kept )

let n_nodes t = Array.length t.node_of_index
let n_paths t = Array.length t.n_rfd
let n_observations t = t.n_observations
let node t i = t.node_of_index.(i)
let index_of t asn = Asn.Map.find_opt asn t.index_of_node
let nodes t = Array.copy t.node_of_index
let path_offsets t = t.path_offsets
let path_nodes t = t.path_nodes

let distinct_path t j =
  Array.sub t.path_nodes t.path_offsets.(j)
    (t.path_offsets.(j + 1) - t.path_offsets.(j))

let n_rfd t j = t.n_rfd.(j)
let n_clean t j = t.n_clean.(j)
let through_offsets t = t.through_offsets
let through_paths t = t.through_paths

let paths_through t i =
  Array.sub t.through_paths t.through_offsets.(i)
    (t.through_offsets.(i + 1) - t.through_offsets.(i))

let support t i = t.support.(i)
let rfd_path_count t = Array.fold_left ( + ) 0 t.n_rfd

let positive_share t =
  float_of_int (rfd_path_count t) /. float_of_int t.n_observations
