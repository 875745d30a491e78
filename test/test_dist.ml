module Rng = Because_stats.Rng
module Dist = Because_stats.Dist
module Summary = Because_stats.Summary

let sample rng n f = Array.init n (fun _ -> f rng)

let check_close msg expected actual tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.4f, got %.4f)" msg expected actual)
    true
    (Float.abs (expected -. actual) < tol)

let test_normal_moments () =
  let rng = Rng.create 1 in
  let xs = sample rng 40_000 (fun r -> Dist.normal r ~mu:3.0 ~sigma:2.0) in
  check_close "mean" 3.0 (Summary.mean xs) 0.05;
  check_close "std" 2.0 (Summary.std xs) 0.05

let test_exponential_moments () =
  let rng = Rng.create 2 in
  let xs = sample rng 40_000 (fun r -> Dist.exponential r ~rate:0.5) in
  check_close "mean = 1/rate" 2.0 (Summary.mean xs) 0.06;
  Alcotest.(check bool) "nonnegative" true (Array.for_all (fun x -> x >= 0.0) xs)

let test_gamma_moments () =
  let rng = Rng.create 3 in
  let xs = sample rng 40_000 (fun r -> Dist.gamma r ~shape:3.0 ~scale:2.0) in
  check_close "mean = kθ" 6.0 (Summary.mean xs) 0.15;
  check_close "var = kθ²" 12.0 (Summary.variance xs) 0.7

let test_gamma_small_shape () =
  let rng = Rng.create 4 in
  let xs = sample rng 40_000 (fun r -> Dist.gamma r ~shape:0.5 ~scale:1.0) in
  check_close "mean" 0.5 (Summary.mean xs) 0.03;
  Alcotest.(check bool) "positive" true (Array.for_all (fun x -> x > 0.0) xs)

let test_beta_moments () =
  let rng = Rng.create 5 in
  let xs = sample rng 40_000 (fun r -> Dist.beta r ~a:2.0 ~b:6.0) in
  check_close "mean = a/(a+b)" 0.25 (Summary.mean xs) 0.01;
  Alcotest.(check bool) "support" true
    (Array.for_all (fun x -> x >= 0.0 && x <= 1.0) xs)

let test_bernoulli () =
  let rng = Rng.create 6 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Dist.bernoulli rng ~p:0.3 then incr hits
  done;
  check_close "rate" 0.3 (float_of_int !hits /. float_of_int n) 0.01

let test_categorical () =
  let rng = Rng.create 8 in
  let counts = Array.make 3 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let i = Dist.categorical rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_close "w0" 0.1 (float_of_int counts.(0) /. float_of_int n) 0.01;
  check_close "w1" 0.2 (float_of_int counts.(1) /. float_of_int n) 0.01;
  check_close "w2" 0.7 (float_of_int counts.(2) /. float_of_int n) 0.01

let test_categorical_invalid () =
  let rng = Rng.create 9 in
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Dist.categorical: weights must sum > 0") (fun () ->
      ignore (Dist.categorical rng [| 0.0; 0.0 |]))

let test_beta_log_pdf () =
  (* Beta(2,2): density 6x(1−x) *)
  let expected x = Float.log (6.0 *. x *. (1.0 -. x)) in
  List.iter
    (fun x ->
      check_close "beta(2,2) pdf" (expected x)
        (Dist.beta_log_pdf ~a:2.0 ~b:2.0 x)
        1e-9)
    [ 0.1; 0.5; 0.9 ];
  Alcotest.(check (float 0.0)) "outside support" neg_infinity
    (Dist.beta_log_pdf ~a:2.0 ~b:2.0 1.5)

let qcheck_beta_support =
  QCheck.Test.make ~name:"beta sampler stays in (0,1)" ~count:300
    QCheck.(triple small_int (float_range 0.1 10.0) (float_range 0.1 10.0))
    (fun (seed, a, b) ->
      let rng = Rng.create seed in
      let x = Dist.beta rng ~a ~b in
      x >= 0.0 && x <= 1.0)

let qcheck_exponential_positive =
  QCheck.Test.make ~name:"exponential sampler nonnegative" ~count:300
    QCheck.(pair small_int (float_range 0.01 100.0))
    (fun (seed, rate) ->
      let rng = Rng.create seed in
      Dist.exponential rng ~rate >= 0.0)

let suite =
  ( "dist",
    [
      Alcotest.test_case "normal moments" `Quick test_normal_moments;
      Alcotest.test_case "exponential moments" `Quick test_exponential_moments;
      Alcotest.test_case "gamma moments" `Quick test_gamma_moments;
      Alcotest.test_case "gamma small shape" `Quick test_gamma_small_shape;
      Alcotest.test_case "beta moments" `Quick test_beta_moments;
      Alcotest.test_case "bernoulli" `Quick test_bernoulli;
      Alcotest.test_case "categorical" `Quick test_categorical;
      Alcotest.test_case "categorical invalid" `Quick test_categorical_invalid;
      Alcotest.test_case "beta log pdf" `Quick test_beta_log_pdf;
      QCheck_alcotest.to_alcotest qcheck_beta_support;
      QCheck_alcotest.to_alcotest qcheck_exponential_positive;
    ] )
