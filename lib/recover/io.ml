type op = Write of string | Rename of string * string

type fault = Short_write of float | Enospc | Rename_fail

let hook : (op -> fault option) option Atomic.t = Atomic.make None
let injected = Atomic.make 0

let inject f = Atomic.set hook (Some f)
let clear () = Atomic.set hook None

let with_faults f body =
  inject f;
  Fun.protect ~finally:clear body

let faults_injected () = Atomic.get injected

let consult op =
  match Atomic.get hook with
  | None -> None
  | Some f ->
      let r = f op in
      if r <> None then Atomic.incr injected;
      r

(* The bytes a write of [data] to [file] lands, after any injected fault:
   [Enospc] and [Rename_fail] raise before anything is written. *)
let faulted file data =
  match consult (Write file) with
  | Some Enospc -> raise (Sys_error (file ^ ": No space left on device"))
  | Some Rename_fail -> raise (Sys_error (file ^ ": rename failed (injected)"))
  | Some (Short_write frac) ->
      let n = String.length data in
      String.sub data 0 (max 0 (min n (int_of_float (frac *. float n))))
  | None -> data

let output_all ?(before_close = ignore) oc data =
  try
    output_string oc data;
    before_close ();
    close_out oc
  with e ->
    close_out_noerr oc;
    raise e

let write_file_atomic ~dir ~file data =
  let data = faulted file data in
  let tmp = Filename.temp_file ~temp_dir:dir "ck" ".tmp" in
  try
    output_all (open_out_bin tmp) data;
    Sys.rename tmp file
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* No [Open_trunc]: a truncating open waits at close for the old blocks to
   be freed.  The length is set after the write instead, which frees
   nothing while the size stays within the file's last block. *)
let overwrite file data =
  let data = faulted file data in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 file in
  output_all oc data ~before_close:(fun () ->
      flush oc;
      try Unix.ftruncate (Unix.descr_of_out_channel oc) (String.length data)
      with Unix.Unix_error (e, _, _) ->
        raise (Sys_error (file ^ ": " ^ Unix.error_message e)))

(* Three attempts; only [Sys_error] (what the OS, and [inject], raise for a
   disk fault) is worth waiting out. *)
let retry f =
  let rec go = function
    | [] -> f ()
    | delay_s :: rest -> (
        try f ()
        with Sys_error _ ->
          Unix.sleepf delay_s;
          go rest)
  in
  go [ 0.002; 0.004 ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (* A concurrent creator may win the race between the check and here. *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
