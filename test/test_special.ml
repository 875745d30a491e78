module Special = Because_stats.Special

let close ?(tol = 1e-8) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.10g, got %.10g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let test_log_gamma_integers () =
  (* Γ(n) = (n−1)! *)
  close "lnΓ(1)" 0.0 (Special.log_gamma 1.0) ~tol:1e-10;
  close "lnΓ(2)" 0.0 (Special.log_gamma 2.0) ~tol:1e-10;
  close "lnΓ(5)" (Float.log 24.0) (Special.log_gamma 5.0);
  close "lnΓ(11)" (Float.log 3628800.0) (Special.log_gamma 11.0)

let test_log_gamma_half () =
  close "lnΓ(0.5)" (Float.log (Float.sqrt Float.pi)) (Special.log_gamma 0.5);
  close "lnΓ(1.5)"
    (Float.log (0.5 *. Float.sqrt Float.pi))
    (Special.log_gamma 1.5)

let test_log_gamma_recurrence () =
  (* Γ(x+1) = x Γ(x) *)
  List.iter
    (fun x ->
      close "recurrence"
        (Special.log_gamma x +. Float.log x)
        (Special.log_gamma (x +. 1.0))
        ~tol:1e-8)
    [ 0.3; 0.7; 1.9; 3.7; 12.1 ]

let test_log_gamma_invalid () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Special.log_gamma: requires x > 0") (fun () ->
      ignore (Special.log_gamma 0.0))

let test_log_beta () =
  (* B(1,1)=1, B(2,3)=1/12, symmetry *)
  close "lnB(1,1)" 0.0 (Special.log_beta 1.0 1.0) ~tol:1e-10;
  close "lnB(2,3)" (Float.log (1.0 /. 12.0)) (Special.log_beta 2.0 3.0);
  close "symmetry" (Special.log_beta 2.5 0.7) (Special.log_beta 0.7 2.5)

let test_log1mexp () =
  (* ln(1 − e^x), checked against direct evaluation at benign points *)
  List.iter
    (fun x ->
      close "log1mexp" (Float.log (1.0 -. Float.exp x)) (Special.log1mexp x))
    [ -0.1; -1.0; -5.0; -0.5 ];
  (* deep negative: 1 − e^x ≈ 1 *)
  close "deep tail" (-.Float.exp (-40.0)) (Special.log1mexp (-40.0)) ~tol:1e-12

let test_log1mexp_invalid () =
  Alcotest.check_raises "x >= 0"
    (Invalid_argument "Special.log1mexp: requires x < 0") (fun () ->
      ignore (Special.log1mexp 0.0))

let test_log_sum_exp () =
  close "two equal" (Float.log 2.0) (Special.log_sum_exp [| 0.0; 0.0 |]);
  close "dominant" 100.0 (Special.log_sum_exp [| 100.0; -100.0 |]) ~tol:1e-10;
  Alcotest.(check (float 0.0)) "empty" neg_infinity (Special.log_sum_exp [||]);
  Alcotest.(check (float 0.0)) "all -inf" neg_infinity
    (Special.log_sum_exp [| neg_infinity; neg_infinity |])

let qcheck_log1mexp_monotone =
  QCheck.Test.make ~name:"log1mexp decreasing in x" ~count:300
    QCheck.(pair (float_range (-30.0) (-0.01)) (float_range (-30.0) (-0.01)))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      QCheck.assume (lo < hi);
      (* larger x ⇒ e^x closer to 1 ⇒ smaller 1 − e^x *)
      Special.log1mexp hi <= Special.log1mexp lo +. 1e-12)

let suite =
  ( "special",
    [
      Alcotest.test_case "log_gamma integers" `Quick test_log_gamma_integers;
      Alcotest.test_case "log_gamma half values" `Quick test_log_gamma_half;
      Alcotest.test_case "log_gamma recurrence" `Quick test_log_gamma_recurrence;
      Alcotest.test_case "log_gamma invalid" `Quick test_log_gamma_invalid;
      Alcotest.test_case "log_beta" `Quick test_log_beta;
      Alcotest.test_case "log1mexp" `Quick test_log1mexp;
      Alcotest.test_case "log1mexp invalid" `Quick test_log1mexp_invalid;
      Alcotest.test_case "log_sum_exp" `Quick test_log_sum_exp;
      QCheck_alcotest.to_alcotest qcheck_log1mexp_monotone;
    ] )
