module Sc = Because_scenario
module Plan = Because_faults.Plan

type t = {
  id : string;
  seed : int;
  transit : int;
  stub : int;
  vantage_hosts : int;
  interval_min : float;
  cycles : int;
  faults : string;
  chains : int;
  samples : int;
  burn_in : int;
  min_path_support : int;
  obs : string option;
}

let default ~id =
  { id; seed = 42; transit = 12; stub = 30; vantage_hosts = 8;
    interval_min = 1.0; cycles = 1; faults = "none"; chains = 1;
    samples = 400; burn_in = 200; min_path_support = 1; obs = None }

let obs_ok path =
  String.length path > 0
  && String.length path <= 512
  && String.for_all (fun c -> Char.code c > 0x20 && Char.code c < 0x7f) path

(* The id names the campaign's directory and report file, so it must start
   with a letter or digit: "." and ".." would resolve to the state directory
   itself or its parent, and a leading dot would hide the report. *)
let id_ok id =
  let alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  String.length id > 0
  && String.length id <= 64
  && alnum id.[0]
  && String.for_all (fun c -> alnum c || c = '.' || c = '_' || c = '-') id

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if not (id_ok t.id) then
    err "id %S must be 1-64 chars of [A-Za-z0-9._-] starting with [A-Za-z0-9]"
      t.id
  else if t.transit < 1 || t.stub < 1 || t.vantage_hosts < 1 then
    err "topology sizes must be positive"
  else if not (t.interval_min > 0.0) then err "interval must be positive"
  else if t.cycles < 1 then err "cycles must be >= 1"
  else if t.chains < 1 then err "chains must be >= 1"
  else if t.samples < 1 || t.burn_in < 0 then
    err "samples must be >= 1 and burn-in >= 0"
  else if t.min_path_support < 1 then err "min-path-support must be >= 1"
  else if
    match t.obs with Some path -> not (obs_ok path) | None -> false
  then
    err "obs path must be 1-512 printable non-space characters"
  else if t.faults <> "none" then
    match Plan.severity_of_string t.faults with
    | Ok _ -> Ok t
    | Error e -> Error e
  else Ok t

let severity t =
  if t.faults = "none" then None
  else
    match Plan.severity_of_string t.faults with
    | Ok s -> Some s
    | Error e -> invalid_arg ("Spec.severity: " ^ e)

(* [obs] is appended only when present: every non-streaming spec keeps its
   exact historical line, so reports and queue snapshots stay byte-for-byte
   compatible. *)
let to_line t =
  Printf.sprintf
    "id=%s seed=%d transit=%d stub=%d vantage=%d interval=%.17g cycles=%d \
     faults=%s chains=%d samples=%d burn=%d support=%d%s"
    t.id t.seed t.transit t.stub t.vantage_hosts t.interval_min t.cycles
    t.faults t.chains t.samples t.burn_in t.min_path_support
    (match t.obs with None -> "" | Some p -> " obs=" ^ p)

let of_line line =
  let ( let* ) = Result.bind in
  let int_of k v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "%s=%S is not an integer" k v)
  in
  let float_of k v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s=%S is not a number" k v)
  in
  let fields =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  let* pairs =
    List.fold_left
      (fun acc field ->
        let* acc = acc in
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "malformed field %S (want key=value)" field)
        | Some i ->
            let k = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            Ok ((k, v) :: acc))
      (Ok []) fields
  in
  let* id =
    match List.assoc_opt "id" pairs with
    | Some id -> Ok id
    | None -> Error "missing required field id="
  in
  let* t =
    List.fold_left
      (fun acc (k, v) ->
        let* t = acc in
        match k with
        | "id" -> Ok t
        | "seed" -> let* n = int_of k v in Ok { t with seed = n }
        | "transit" -> let* n = int_of k v in Ok { t with transit = n }
        | "stub" -> let* n = int_of k v in Ok { t with stub = n }
        | "vantage" -> let* n = int_of k v in Ok { t with vantage_hosts = n }
        | "interval" -> let* f = float_of k v in Ok { t with interval_min = f }
        | "cycles" -> let* n = int_of k v in Ok { t with cycles = n }
        | "faults" -> Ok { t with faults = v }
        | "chains" -> let* n = int_of k v in Ok { t with chains = n }
        | "samples" -> let* n = int_of k v in Ok { t with samples = n }
        | "burn" -> let* n = int_of k v in Ok { t with burn_in = n }
        | "support" -> let* n = int_of k v in Ok { t with min_path_support = n }
        | "obs" -> Ok { t with obs = Some v }
        | _ -> Error (Printf.sprintf "unknown field %S" k))
      (Ok (default ~id)) pairs
  in
  validate t

let equal a b = a = b

let world t =
  Sc.World.of_sizes ~seed:t.seed ~transit:t.transit ~stub:t.stub
    ~vantage_hosts:t.vantage_hosts

let params t ~world ~jobs =
  let base =
    Sc.Campaign.with_jobs ~n_chains:t.chains ~sim_jobs:1
      { (Sc.Campaign.default_params ~update_interval:(t.interval_min *. 60.0))
        with Sc.Campaign.cycles = t.cycles;
             min_path_support = t.min_path_support }
      jobs
  in
  let base =
    { base with
      Sc.Campaign.infer_config =
        { base.Sc.Campaign.infer_config with
          Because.Infer.n_samples = t.samples;
          burn_in = t.burn_in } }
  in
  match severity t with
  | None -> base
  | Some sev ->
      { base with Sc.Campaign.faults = Sc.Campaign.draw_faults world base sev }
