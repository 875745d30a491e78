(* Summary, Histogram, Hdpi, Ecdf, Regression, Parallel. *)
module Summary = Because_stats.Summary
module Histogram = Because_stats.Histogram
module Hdpi = Because_stats.Hdpi
module Ecdf = Because_stats.Ecdf
module Regression = Because_stats.Regression
module Rng = Because_stats.Rng
module Dist = Because_stats.Dist

let close msg expected actual tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.6f, got %.6f)" msg expected actual)
    true
    (Float.abs (expected -. actual) < tol)

(* ---------------- Summary ---------------- *)

let test_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  close "mean" 5.0 (Summary.mean xs) 1e-12;
  close "variance" (32.0 /. 7.0) (Summary.variance xs) 1e-12;
  close "std" (Float.sqrt (32.0 /. 7.0)) (Summary.std xs) 1e-12

let test_quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  close "q0" 1.0 (Summary.quantile xs 0.0) 1e-12;
  close "q1" 4.0 (Summary.quantile xs 1.0) 1e-12;
  close "median" 2.5 (Summary.median xs) 1e-12;
  close "q0.25" 1.75 (Summary.quantile xs 0.25) 1e-12

let test_quantile_unsorted_input () =
  let xs = [| 9.0; 1.0; 5.0 |] in
  close "median of unsorted" 5.0 (Summary.median xs) 1e-12;
  Alcotest.(check (float 0.0)) "input untouched" 9.0 xs.(0)

(* ---------------- Histogram ---------------- *)

let test_histogram_counts () =
  let h = Histogram.of_array ~lo:0.0 ~hi:1.0 ~bins:4 [| 0.1; 0.3; 0.6; 0.9; 0.95 |] in
  Alcotest.(check (array int)) "counts" [| 1; 1; 1; 2 |] h.Histogram.counts;
  Alcotest.(check int) "total" 5 h.Histogram.total

let test_histogram_clamp () =
  let h = Histogram.of_array ~lo:0.0 ~hi:1.0 ~bins:2 [| -5.0; 5.0 |] in
  Alcotest.(check (array int)) "clamped to edges" [| 1; 1 |] h.Histogram.counts

let test_histogram_density () =
  let h = Histogram.of_array ~lo:0.0 ~hi:2.0 ~bins:4 [| 0.1; 0.6; 1.1; 1.6 |] in
  let d = Histogram.densities h in
  let integral =
    Array.fold_left (fun acc v -> acc +. (v *. Histogram.bin_width h)) 0.0 d
  in
  close "integrates to 1" 1.0 integral 1e-12

(* ---------------- Hdpi ---------------- *)

let test_hdpi_uniform () =
  let rng = Rng.create 42 in
  let xs = Array.init 20_000 (fun _ -> Rng.float rng) in
  let interval = Hdpi.compute ~mass:0.9 xs in
  close "width ~ mass on uniform" 0.9 (Hdpi.width interval) 0.02

let test_hdpi_point_mass () =
  let xs = Array.make 100 0.7 in
  let interval = Hdpi.compute xs in
  close "degenerate width" 0.0 (Hdpi.width interval) 1e-12;
  Alcotest.(check bool) "contains point" true (Hdpi.contains interval 0.7)

let test_hdpi_concentrated () =
  (* 95% of mass near 0.2, 5% outliers near 0.9: the interval should hug 0.2. *)
  let xs =
    Array.init 1000 (fun i ->
        if i < 950 then 0.2 +. (0.0001 *. float_of_int i) else 0.9)
  in
  let interval = Hdpi.compute ~mass:0.9 xs in
  Alcotest.(check bool) "excludes outliers" true (interval.Hdpi.hi < 0.5)

let test_hdpi_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Hdpi.compute: empty sample array")
    (fun () -> ignore (Hdpi.compute [||]))

let qcheck_hdpi_within_range =
  QCheck.Test.make ~name:"HDPI bounds lie within the sample range" ~count:150
    QCheck.(array_of_size Gen.(int_range 1 200) (float_range 0.0 1.0))
    (fun xs ->
      QCheck.assume (Array.length xs > 0);
      let interval = Hdpi.compute xs in
      let lo = Summary.min xs and hi = Summary.max xs in
      interval.Hdpi.lo >= lo -. 1e-12 && interval.Hdpi.hi <= hi +. 1e-12)

let qcheck_hdpi_covers_mass =
  QCheck.Test.make ~name:"HDPI contains at least the requested mass" ~count:100
    QCheck.(pair small_int (float_range 0.5 0.99))
    (fun (seed, mass) ->
      let rng = Rng.create (seed + 1) in
      let xs = Array.init 500 (fun _ -> Dist.beta rng ~a:2.0 ~b:3.0) in
      let interval = Hdpi.compute ~mass xs in
      let inside =
        Array.fold_left
          (fun acc x -> if Hdpi.contains interval x then acc + 1 else acc)
          0 xs
      in
      float_of_int inside /. 500.0 >= mass -. 1e-9)

(* ---------------- Ecdf ---------------- *)

let test_ecdf_eval () =
  let e = Ecdf.of_array [| 1.0; 2.0; 3.0; 4.0 |] in
  close "below" 0.0 (Ecdf.eval e 0.5) 1e-12;
  close "at 2" 0.5 (Ecdf.eval e 2.0) 1e-12;
  close "mid" 0.5 (Ecdf.eval e 2.5) 1e-12;
  close "top" 1.0 (Ecdf.eval e 4.0) 1e-12

let test_ecdf_quantile () =
  let e = Ecdf.of_array [| 10.0; 20.0; 30.0; 40.0 |] in
  close "q0.5" 20.0 (Ecdf.quantile e 0.5) 1e-12;
  close "q1" 40.0 (Ecdf.quantile e 1.0) 1e-12

let test_ecdf_series () =
  let e = Ecdf.of_array [| 0.0; 10.0 |] in
  let s = Ecdf.series ~points:11 e in
  Alcotest.(check int) "points" 11 (List.length s);
  let last_x, last_f = List.nth s 10 in
  close "last x" 10.0 last_x 1e-9;
  close "last F" 1.0 last_f 1e-12

let qcheck_ecdf_quantile_inverse =
  QCheck.Test.make ~name:"ECDF eval(quantile q) >= q" ~count:200
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 60) (float_range (-50.) 50.))
        (float_range 0.01 1.0))
    (fun (xs, q) ->
      QCheck.assume (Array.length xs > 0);
      let e = Ecdf.of_array xs in
      Ecdf.eval e (Ecdf.quantile e q) >= q -. 1e-9)

let qcheck_ecdf_monotone =
  QCheck.Test.make ~name:"ECDF is monotone" ~count:200
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
        (pair (float_range (-150.) 150.) (float_range (-150.) 150.)))
    (fun (xs, (a, b)) ->
      QCheck.assume (Array.length xs > 0);
      let e = Ecdf.of_array xs in
      let lo = Float.min a b and hi = Float.max a b in
      Ecdf.eval e lo <= Ecdf.eval e hi +. 1e-12)

(* ---------------- Regression ---------------- *)

let test_regression_exact () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = Array.map (fun x -> (2.5 *. x) -. 1.0) xs in
  let f = Regression.fit xs ys in
  close "slope" 2.5 f.Regression.slope 1e-12;
  close "intercept" (-1.0) f.Regression.intercept 1e-12;
  close "r2" 1.0 f.Regression.r2 1e-12

let test_regression_flat () =
  let f = Regression.fit_heights [| 3.0; 3.0; 3.0; 3.0 |] in
  close "flat slope" 0.0 f.Regression.slope 1e-12;
  close "flat r2" 0.0 f.Regression.r2 1e-12

let test_relative_change () =
  let f = Regression.fit_heights [| 10.0; 8.0; 6.0; 4.0; 2.0 |] in
  (* fitted: 10 → 2 over 5 bins: relative change −0.8 *)
  close "dying" (-0.8) (Regression.relative_change f ~n:5) 1e-9

let test_regression_invalid () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Regression.fit: length mismatch") (fun () ->
      ignore (Regression.fit [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "constant x"
    (Invalid_argument "Regression.fit: constant x") (fun () ->
      ignore (Regression.fit [| 1.0; 1.0 |] [| 1.0; 2.0 |]))

(* ---------------- Parallel ---------------- *)

module Parallel = Because_stats.Parallel

let squares n = Array.init n (fun i -> (fun () -> i * i))

let test_parallel_order () =
  (* Results land in task order regardless of scheduling width. *)
  let expected = Array.init 9 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Parallel.run_tasks ~jobs (squares 9)))
    [ 1; 2; 4 ]

let test_parallel_reuse () =
  (* The shared pool survives across batches: repeated fan-outs keep
     producing correct results (the regression mode here is a worker
     wedged on a stale batch, which would hang or corrupt slot writes). *)
  for round = 1 to 20 do
    let n = 1 + (round mod 7) in
    let got = Parallel.run_tasks ~jobs:4 (squares n) in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      (Array.init n (fun i -> i * i))
      got
  done

let test_parallel_dedicated_pool () =
  let pool = Parallel.create ~workers:2 in
  for round = 1 to 5 do
    let got = Parallel.run pool ~jobs:2 (squares 8) in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      (Array.init 8 (fun i -> i * i))
      got
  done;
  Alcotest.(check bool) "never exceeds workers" true
    (Parallel.worker_count pool <= 2)

exception Task_boom of int

let test_parallel_exception () =
  (* A task exception is re-raised on the submitter; first failure wins and
     the remaining tasks are skipped, not left dangling. *)
  List.iter
    (fun jobs ->
      match
        Parallel.run_tasks ~jobs
          (Array.init 6 (fun i ->
               fun () -> if i = 3 then raise (Task_boom i) else i))
      with
      | _ -> Alcotest.failf "jobs=%d: expected Task_boom" jobs
      | exception Task_boom 3 -> ()
      | exception e ->
          Alcotest.failf "jobs=%d: wrong exception %s" jobs
            (Printexc.to_string e))
    [ 1; 4 ];
  (* Subsequent batches on the same pool still work after a failure. *)
  Alcotest.(check (array int))
    "pool usable after failure"
    (Array.init 4 (fun i -> i * i))
    (Parallel.run_tasks ~jobs:4 (squares 4))

let test_parallel_nested () =
  (* A task that itself fans out must not deadlock on the shared pool: the
     inner call finds the pool busy and takes the spawn fallback. *)
  let got =
    Parallel.run_tasks ~jobs:2
      (Array.init 3 (fun i ->
           fun () ->
             Array.fold_left ( + ) 0
               (Parallel.run_tasks ~jobs:2
                  (Array.init 4 (fun j -> fun () -> (10 * i) + j)))))
  in
  Alcotest.(check (array int))
    "nested totals"
    [| 6; 46; 86 |]
    got

let test_parallel_busy_pool_inline () =
  (* Two outer tasks on a one-worker pool each fan out again with jobs=4.
     The pool is busy with the outer batch, so the inner batches run on the
     domains that submitted them: the submitter and the one worker. *)
  let pool = Parallel.create ~workers:1 in
  let self () = (Domain.self () :> int) in
  let ids =
    Parallel.run pool ~jobs:2
      (Array.init 2 (fun _ ->
           fun () ->
             self ()
             :: Array.to_list
                  (Parallel.run pool ~jobs:4 (Array.make 4 self))))
  in
  let distinct = List.sort_uniq compare (List.concat (Array.to_list ids)) in
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 domains (saw %d)" (List.length distinct))
    true
    (List.length distinct <= 2)

let test_parallel_invalid () =
  Alcotest.check_raises "workers=0"
    (Invalid_argument "Parallel.create: workers must be positive") (fun () ->
      ignore (Parallel.create ~workers:0));
  Alcotest.check_raises "workers<0"
    (Invalid_argument "Parallel.create: workers must be positive") (fun () ->
      ignore (Parallel.create ~workers:(-3)));
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Parallel.run_tasks: jobs must be positive") (fun () ->
      ignore (Parallel.run_tasks ~jobs:0 (squares 2)));
  let pool = Parallel.create ~workers:2 in
  Alcotest.check_raises "run jobs=0"
    (Invalid_argument "Parallel.run: jobs must be positive") (fun () ->
      ignore (Parallel.run pool ~jobs:0 (squares 2)))

let test_parallel_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||]
    (Parallel.run_tasks ~jobs:4 [||]);
  Alcotest.(check (array int)) "single task" [| 7 |]
    (Parallel.run_tasks ~jobs:4 [| (fun () -> 7) |])

let suite =
  ( "stats",
    [
      Alcotest.test_case "mean/variance" `Quick test_mean_variance;
      Alcotest.test_case "quantiles" `Quick test_quantiles;
      Alcotest.test_case "quantile unsorted" `Quick test_quantile_unsorted_input;
      Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
      Alcotest.test_case "histogram clamp" `Quick test_histogram_clamp;
      Alcotest.test_case "histogram density" `Quick test_histogram_density;
      Alcotest.test_case "hdpi uniform" `Quick test_hdpi_uniform;
      Alcotest.test_case "hdpi point mass" `Quick test_hdpi_point_mass;
      Alcotest.test_case "hdpi concentrated" `Quick test_hdpi_concentrated;
      Alcotest.test_case "hdpi invalid" `Quick test_hdpi_invalid;
      QCheck_alcotest.to_alcotest qcheck_hdpi_covers_mass;
      QCheck_alcotest.to_alcotest qcheck_hdpi_within_range;
      Alcotest.test_case "ecdf eval" `Quick test_ecdf_eval;
      Alcotest.test_case "ecdf quantile" `Quick test_ecdf_quantile;
      Alcotest.test_case "ecdf series" `Quick test_ecdf_series;
      QCheck_alcotest.to_alcotest qcheck_ecdf_monotone;
      QCheck_alcotest.to_alcotest qcheck_ecdf_quantile_inverse;
      Alcotest.test_case "regression exact" `Quick test_regression_exact;
      Alcotest.test_case "regression flat" `Quick test_regression_flat;
      Alcotest.test_case "relative change" `Quick test_relative_change;
      Alcotest.test_case "regression invalid" `Quick test_regression_invalid;
      Alcotest.test_case "parallel order" `Quick test_parallel_order;
      Alcotest.test_case "parallel pool reuse" `Quick test_parallel_reuse;
      Alcotest.test_case "parallel dedicated pool" `Quick
        test_parallel_dedicated_pool;
      Alcotest.test_case "parallel exception" `Quick test_parallel_exception;
      Alcotest.test_case "parallel nested" `Quick test_parallel_nested;
      Alcotest.test_case "parallel busy pool runs inline" `Quick
        test_parallel_busy_pool_inline;
      Alcotest.test_case "parallel invalid args" `Quick test_parallel_invalid;
      Alcotest.test_case "parallel empty/single" `Quick
        test_parallel_empty_and_single;
    ] )
