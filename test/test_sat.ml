open Because_bgp
module Solver = Because_baselines.Solver
module Bt = Because_baselines.Binary_tomography

let asn = Asn.of_int
let path ints = List.map asn ints

let model_of = function
  | Solver.Sat m -> m
  | Solver.Unsat -> Alcotest.fail "expected SAT"

let test_trivial_sat () =
  let m = model_of (Solver.solve ~n_vars:2 [ [ 1 ]; [ -2 ] ]) in
  Alcotest.(check bool) "x1" true m.(1);
  Alcotest.(check bool) "x2" false m.(2)

let test_unsat () =
  match Solver.solve ~n_vars:1 [ [ 1 ]; [ -1 ] ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "contradiction accepted"

let test_empty_clause_unsat () =
  match Solver.solve ~n_vars:2 [ [] ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "empty clause accepted"

let test_unit_propagation_chain () =
  (* x1, x1→x2, x2→x3 i.e. (¬x1 ∨ x2), (¬x2 ∨ x3). *)
  let m =
    model_of (Solver.solve ~n_vars:3 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ] ])
  in
  Alcotest.(check (list bool)) "chain forced" [ true; true; true ]
    [ m.(1); m.(2); m.(3) ]

let test_backtracking () =
  (* (x1 ∨ x2) ∧ (¬x1 ∨ x2) forces x2. *)
  let m = model_of (Solver.solve ~n_vars:2 [ [ 1; 2 ]; [ -1; 2 ] ]) in
  Alcotest.(check bool) "x2 forced" true m.(2)

let test_satisfies_all_clauses () =
  let clauses = [ [ 1; -2; 3 ]; [ -1; 2 ]; [ 2; 3 ]; [ -3; -1 ] ] in
  let m = model_of (Solver.solve ~n_vars:3 clauses) in
  let lit l = if l > 0 then m.(l) else not m.(-l) in
  List.iter
    (fun clause ->
      Alcotest.(check bool) "clause satisfied" true (List.exists lit clause))
    clauses

let test_count_solutions () =
  (* Two free variables: 4 assignments. *)
  Alcotest.(check int) "free square" 4
    (Solver.count_solutions ~n_vars:2 []);
  Alcotest.(check int) "forced unique" 1
    (Solver.count_solutions ~n_vars:2 [ [ 1 ]; [ -2 ] ]);
  Alcotest.(check int) "unsat has none" 0
    (Solver.count_solutions ~n_vars:1 [ [ 1 ]; [ -1 ] ]);
  Alcotest.(check int) "limit respected" 3
    (Solver.count_solutions ~limit:3 ~n_vars:4 [])

let test_invalid_literal () =
  Alcotest.(check bool) "range checked" true
    (try ignore (Solver.solve ~n_vars:1 [ [ 2 ] ]); false
     with Invalid_argument _ -> true)

let qcheck_model_satisfies =
  let clause_gen =
    QCheck.Gen.(list_size (int_range 1 4) (map (fun (v, s) -> if s then v else -v)
      (pair (int_range 1 8) bool)))
  in
  QCheck.Test.make ~name:"SAT models satisfy every clause" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 20) clause_gen))
    (fun clauses ->
      match Solver.solve ~n_vars:8 clauses with
      | Solver.Unsat -> true
      | Solver.Sat m ->
          List.for_all
            (List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)))
            clauses)

(* Binary tomography encodings. *)

let test_consistent_data_is_sat () =
  (* AS 3 damps everything: clean data is satisfiable and pins it down. *)
  let data =
    Because.Tomography.of_observations
      [
        (path [ 1; 3; 9 ], true);
        (path [ 2; 3; 9 ], true);
        (path [ 1; 4; 9 ], false);
        (path [ 2; 4; 9 ], false);
      ]
  in
  match Bt.solve data with
  | Bt.Unique set ->
      Alcotest.(check (list int)) "exactly AS3" [ 3 ]
        (List.map Asn.to_int (Asn.Set.elements set))
  | v -> Alcotest.failf "unexpected verdict: %a" Bt.pp_verdict v

let test_sparse_data_many_solutions () =
  (* One positive path, nobody exonerated: any non-empty subset works. *)
  let data =
    Because.Tomography.of_observations [ (path [ 1; 2; 3 ], true) ]
  in
  match Bt.solve data with
  | Bt.Multiple { count_at_least; _ } ->
      Alcotest.(check int) "2^3 − 1 damping sets" 7 count_at_least
  | v -> Alcotest.failf "unexpected verdict: %a" Bt.pp_verdict v

let test_inconsistent_deployment_is_unsat () =
  (* The AS-701 situation the paper cites as breaking SAT: a clean path
     through 701 exonerates it, while a damped path whose other members are
     all exonerated requires it. *)
  let data =
    Because.Tomography.of_observations
      [
        (path [ 10; 701; 2497; 9 ], false);  (* via the spared neighbor *)
        (path [ 10; 701; 9 ], true);         (* damped session *)
      ]
  in
  (match Bt.solve data with
  | Bt.Unsat -> ()
  | v -> Alcotest.failf "expected UNSAT, got %a" Bt.pp_verdict v);
  (* BeCAUSe handles the same data gracefully. *)
  let result =
    Because.Infer.run ~rng:(Because_stats.Rng.create 3)
      ~config:{ Because.Infer.default_config with n_samples = 200; burn_in = 150 }
      data
  in
  Alcotest.(check bool) "BeCAUSe still produces a posterior" true
    (Array.length (Because.Posterior.combined result) = 4)

let test_encoding_shape () =
  let data =
    Because.Tomography.of_observations
      [ (path [ 1; 2 ], true); (path [ 3 ], false) ]
  in
  let clauses = Bt.encode data in
  Alcotest.(check int) "one positive clause + one unit" 2 (List.length clauses);
  Alcotest.(check bool) "positive clause lists both nodes" true
    (List.mem [ 1; 2 ] clauses);
  Alcotest.(check bool) "clean node negated" true (List.mem [ -3 ] clauses)

let suite =
  ( "sat",
    [
      Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
      Alcotest.test_case "unsat" `Quick test_unsat;
      Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
      Alcotest.test_case "unit propagation" `Quick test_unit_propagation_chain;
      Alcotest.test_case "backtracking" `Quick test_backtracking;
      Alcotest.test_case "model satisfies" `Quick test_satisfies_all_clauses;
      Alcotest.test_case "count solutions" `Quick test_count_solutions;
      Alcotest.test_case "invalid literal" `Quick test_invalid_literal;
      QCheck_alcotest.to_alcotest qcheck_model_satisfies;
      Alcotest.test_case "consistent data unique" `Quick
        test_consistent_data_is_sat;
      Alcotest.test_case "sparse data many solutions" `Quick
        test_sparse_data_many_solutions;
      Alcotest.test_case "inconsistent deployment UNSAT" `Quick
        test_inconsistent_deployment_is_unsat;
      Alcotest.test_case "encoding shape" `Quick test_encoding_shape;
    ] )
