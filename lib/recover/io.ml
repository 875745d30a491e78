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

let rename src dst =
  match consult (Rename (src, dst)) with
  | Some Rename_fail ->
      raise (Sys_error (dst ^ ": rename failed (injected)"))
  | Some (Short_write _) | Some Enospc | None -> Sys.rename src dst

let write_file_atomic ~dir ~file data =
  let fault = consult (Write file) in
  (match fault with
  | Some Enospc -> raise (Sys_error (file ^ ": No space left on device"))
  | _ -> ());
  let data =
    match fault with
    | Some (Short_write frac) ->
        let keep =
          int_of_float (frac *. float_of_int (String.length data))
        in
        String.sub data 0 (max 0 (min keep (String.length data)))
    | _ -> data
  in
  let tmp = Filename.temp_file ~temp_dir:dir "ck" ".tmp" in
  try
    let oc = open_out_bin tmp in
    (try
       output_string oc data;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    match fault with
    | Some Rename_fail ->
        raise (Sys_error (file ^ ": rename failed (injected)"))
    | _ -> Sys.rename tmp file
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

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
