(* Durable writes under disk faults: the bounded [Io.retry], the
   injectable I/O fault shim, and the checkpoint store's use of both. *)

module Io = Because_recover.Io
module Checkpoint = Because_recover.Checkpoint

let fresh_dir () =
  let f = Filename.temp_file "because-resil" ".dir" in
  Sys.remove f;
  f

(* ------------------------------------------------------------------ *)
(* Retry                                                                *)

let test_retry_budget () =
  (* Two transient disk errors are absorbed. *)
  let calls = ref 0 in
  let v =
    Io.retry (fun () ->
        incr calls;
        if !calls < 3 then raise (Sys_error "transient") else 42)
  in
  Alcotest.(check int) "eventually succeeds" 42 v;
  Alcotest.(check int) "three calls" 3 !calls;
  (* The third Sys_error propagates. *)
  let calls = ref 0 in
  (match
     Io.retry (fun () ->
         incr calls;
         raise (Sys_error (Printf.sprintf "always %d" !calls)))
   with
  | _ -> Alcotest.fail "expected Sys_error"
  | exception Sys_error e ->
      Alcotest.(check string) "last error wins" "always 3" e);
  Alcotest.(check int) "budget bounds attempts" 3 !calls;
  (* Anything but Sys_error escapes on the first attempt. *)
  List.iter
    (fun (name, exn) ->
      let calls = ref 0 in
      (match
         Io.retry (fun () ->
             incr calls;
             raise exn)
       with
      | _ -> Alcotest.fail ("expected " ^ name)
      | exception e when e == exn -> ());
      Alcotest.(check int) (name ^ " is not retried") 1 !calls)
    [ ("Failure", Failure "bug");
      ("Drained", Because_recover.Supervise.Drained) ]

(* ------------------------------------------------------------------ *)
(* I/O fault shim                                                       *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_io_faults () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "payload" in
  let base = Io.faults_injected () in
  (* No hook: plain atomic write. *)
  Io.write_file_atomic ~dir ~file "hello";
  Alcotest.(check string) "clean write" "hello" (read_file file);
  (* Short write "succeeds" but lands torn bytes — the CRC layer above
     is what must catch this. *)
  Io.with_faults (fun _ -> Some (Io.Short_write 0.5)) (fun () ->
      Io.write_file_atomic ~dir ~file "0123456789");
  Alcotest.(check string) "short write lands torn" "01234" (read_file file);
  (* ENOSPC raises before touching the destination. *)
  (match
     Io.with_faults (fun _ -> Some Io.Enospc) (fun () ->
         Io.write_file_atomic ~dir ~file "replacement")
   with
  | () -> Alcotest.fail "expected ENOSPC"
  | exception Sys_error _ -> ());
  Alcotest.(check string) "destination untouched" "01234" (read_file file);
  (* Rename failure leaves neither the destination nor a temp file. *)
  (match
     Io.with_faults (fun _ -> Some Io.Rename_fail) (fun () ->
         Io.write_file_atomic ~dir ~file "replacement")
   with
  | () -> Alcotest.fail "expected rename failure"
  | exception Sys_error _ -> ());
  Alcotest.(check string) "destination still untouched" "01234"
    (read_file file);
  Alcotest.(check (list string)) "no temp litter" [ "payload" ]
    (Sys.readdir dir |> Array.to_list |> List.sort compare);
  Alcotest.(check int) "injections counted" 3 (Io.faults_injected () - base);
  (* with_faults clears the hook even on exception paths. *)
  Io.write_file_atomic ~dir ~file "after";
  Alcotest.(check string) "hook cleared" "after" (read_file file)

(* A real (not injected) rename failure: the destination is a directory. *)
let test_io_real_rename_failure () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "taken" in
  Unix.mkdir file 0o755;
  (match Io.write_file_atomic ~dir ~file "data" with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  Alcotest.(check (list string)) "no temp file left" [ "taken" ]
    (Sys.readdir dir |> Array.to_list)

(* In place, the file ends where the payload does: a shorter payload over
   a longer file leaves no stale tail, a short write leaves exactly the
   torn prefix, and the faults that fail before writing leave the file
   alone. *)
let test_io_overwrite_exact_length () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let file = Filename.concat dir "slot" in
  Io.overwrite file "0123456789";
  Alcotest.(check string) "fresh file" "0123456789" (read_file file);
  Io.overwrite file "abc";
  Alcotest.(check string) "shorter payload, no stale tail" "abc"
    (read_file file);
  Io.overwrite file "ABCDEFGHIJKLMNOP";
  Alcotest.(check string) "longer payload" "ABCDEFGHIJKLMNOP"
    (read_file file);
  Io.with_faults (fun _ -> Some (Io.Short_write 0.5)) (fun () ->
      Io.overwrite file "0123456789");
  Alcotest.(check string) "short write leaves the torn prefix" "01234"
    (read_file file);
  List.iter
    (fun fault ->
      match
        Io.with_faults (fun _ -> Some fault) (fun () ->
            Io.overwrite file "replacement")
      with
      | () -> Alcotest.fail "expected Sys_error"
      | exception Sys_error _ -> ())
    [ Io.Enospc; Io.Rename_fail ];
  Alcotest.(check string) "failed writes leave the file alone" "01234"
    (read_file file)

(* Every failure of an in-place write is a [Sys_error], so [Io.retry]
   covers it: a directory in the way (the open fails) and a device that
   cannot be truncated (the length cannot be set). *)
let test_io_overwrite_errors_are_sys_errors () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let taken = Filename.concat dir "taken" in
  Unix.mkdir taken 0o755;
  List.iter
    (fun path ->
      let calls = ref 0 in
      (match
         Io.retry (fun () ->
             incr calls;
             Io.overwrite path "data")
       with
      | () -> Alcotest.failf "%s: expected Sys_error" path
      | exception Sys_error _ -> ());
      Alcotest.(check int) (path ^ ": retried") 3 !calls)
    [ taken; "/dev/null" ]

(* ------------------------------------------------------------------ *)
(* Checkpoint store under disk faults                                   *)

(* Either of key k's two slot files. *)
let is_slot f =
  Filename.check_suffix f "k.ck" || Filename.check_suffix f "k.prev.ck"

let test_checkpoint_write_retry () =
  let dir = fresh_dir () in
  let ck = Checkpoint.open_ ~dir ~fingerprint:"fp-resil" () in
  Checkpoint.save ck ~key:"k" "v1";
  Alcotest.(check (option string)) "baseline save" (Some "v1")
    (Checkpoint.load ck ~key:"k");
  (* Two transient ENOSPCs on the snapshot file: absorbed by the three
     attempts of Io.retry. *)
  let remaining = ref 2 in
  Io.with_faults
    (fun op ->
      match op with
      | Io.Write f when is_slot f && !remaining > 0 ->
          decr remaining;
          Some Io.Enospc
      | _ -> None)
    (fun () -> Checkpoint.save ck ~key:"k" "v2");
  Alcotest.(check (option string)) "save survived transient faults"
    (Some "v2")
    (Checkpoint.load ck ~key:"k");
  (* A persistent fault exhausts the budget and raises; the previous
     snapshot still loads from the other slot. *)
  (match
     Io.with_faults
       (fun op ->
         match op with
         | Io.Write f when is_slot f -> Some Io.Enospc
         | _ -> None)
       (fun () -> Checkpoint.save ck ~key:"k" "v3")
   with
  | () -> Alcotest.fail "expected exhausted write budget"
  | exception Sys_error _ -> ());
  Alcotest.(check (option string)) "previous snapshot survives"
    (Some "v2")
    (Checkpoint.load ck ~key:"k");
  (* A short write is not an exception: it lands torn bytes the CRC
     envelope must detect, falling back with a warning. *)
  Checkpoint.save ck ~key:"k" "v4";
  Io.with_faults
    (fun op ->
      match op with
      | Io.Write f when is_slot f -> Some (Io.Short_write 0.5)
      | _ -> None)
    (fun () -> Checkpoint.save ck ~key:"k" "v5-torn");
  let reopened = Checkpoint.open_ ~dir ~fingerprint:"fp-resil" () in
  Alcotest.(check (option string)) "torn snapshot quarantined, fallback used"
    (Some "v4")
    (Checkpoint.load reopened ~key:"k");
  Alcotest.(check bool) "quarantine warning recorded" true
    (Checkpoint.warnings reopened <> [])

let suite =
  ( "resilience",
    [
      Alcotest.test_case "retry budget + retryable filter" `Quick
        test_retry_budget;
      Alcotest.test_case "io fault shim" `Quick test_io_faults;
      Alcotest.test_case "io overwrite leaves exactly the payload" `Quick
        test_io_overwrite_exact_length;
      Alcotest.test_case "io overwrite errors are Sys_error" `Quick
        test_io_overwrite_errors_are_sys_errors;
      Alcotest.test_case "io failed rename leaves no temp file" `Quick
        test_io_real_rename_failure;
      Alcotest.test_case "checkpoint writes retried under faults" `Quick
        test_checkpoint_write_retry;
    ] )
