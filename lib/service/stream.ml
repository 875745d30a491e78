open Because_bgp
module Supervise = Because_recover.Supervise
module Rng = Because_stats.Rng
module Tel = Because_telemetry.Registry

type outcome = {
  status : Supervise.status;
  estimates : Store.estimate array;
  obs_count : int;
  gate_sweeps : int option;
}

(* One spool line: [rfd|clean ASN ...]; blank lines and [#] comments
   parse to [None]. *)
let parse_line lineno line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    match
      String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
    with
    | [] -> Ok None
    | label :: ases -> (
        let damped =
          match label with
          | "rfd" -> Some true
          | "clean" -> Some false
          | _ -> None
        in
        match damped with
        | None ->
            Error
              (Printf.sprintf "line %d: want 'rfd' or 'clean', got %S" lineno
                 label)
        | Some damped -> (
            if ases = [] then
              Error (Printf.sprintf "line %d: empty AS path" lineno)
            else
              (* [Asn.of_int] rejects values outside [0, 2^32). *)
              match
                List.map
                  (fun s ->
                    match int_of_string_opt s with
                    | Some n -> (
                        try Asn.of_int n with Invalid_argument _ -> raise Exit)
                    | None -> raise Exit)
                  ases
              with
              | path -> Ok (Some (path, damped))
              | exception Exit ->
                  Error (Printf.sprintf "line %d: malformed ASN" lineno)))

let parse_observations path =
  match open_in_bin path with
  | exception Sys_error e -> Error (Because_collector.Mrt.io_error path e)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go lineno acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | exception Sys_error e ->
                Error (Because_collector.Mrt.io_error path e)
            | line -> (
                match parse_line lineno line with
                | Ok None -> go (lineno + 1) acc
                | Ok (Some ob) -> go (lineno + 1) (ob :: acc)
                | Error _ as e -> e)
          in
          go 1 [])

let warm_init prior nodes =
  let clamp m = Float.max 1e-4 (Float.min (1.0 -. 1e-4) m) in
  let means = Hashtbl.create (Array.length prior) in
  Array.iter
    (fun (e : Store.estimate) ->
      Hashtbl.replace means (Asn.to_int e.Store.asn) e.Store.mean)
    prior;
  Array.map
    (fun asn ->
      match Hashtbl.find_opt means (Asn.to_int asn) with
      | Some m -> clamp m
      | None -> 0.5)
    nodes

let run ~spec ~epoch ~prior ~telemetry ~supervise ~jobs () =
  match spec.Spec.obs with
  | None -> Error "Stream.run: spec has no obs path"
  | Some path -> (
      match parse_observations path with
      | Error e -> Error (Printf.sprintf "observation spool %s: %s" path e)
      | Ok [] ->
          Ok
            { status =
                Supervise.Insufficient
                  [ Printf.sprintf "observation spool %s is empty" path ];
              estimates = [||]; obs_count = 0; gate_sweeps = None }
      | Ok observations ->
          let data = Because.Tomography.of_observations observations in
          let warm = Array.length prior > 0 in
          (* A warm epoch starts where the last posterior ended, so most of
             the burn-in budget is adaptation it no longer needs. *)
          let burn_in =
            if warm then max 1 (spec.Spec.burn_in / 4)
            else spec.Spec.burn_in
          in
          let init =
            if warm then
              Some (warm_init prior (Because.Tomography.nodes data))
            else None
          in
          let config =
            { Because.Infer.default_config with
              Because.Infer.n_samples = spec.Spec.samples;
              burn_in;
              n_chains = spec.Spec.chains;
              jobs;
              telemetry;
              supervise;
              init }
          in
          (* The epoch feeds the RNG derivation so a cold rerun of epoch k
             is reproducible, while distinct epochs draw distinct streams. *)
          let rng = Rng.create ((spec.Spec.seed * 1009) + epoch) in
          let result =
            Tel.Span.with_ telemetry ~name:"stream.infer" (fun () ->
                Because.Infer.run ~rng ~config data)
          in
          let p =
            Because.Pinpoint.pipeline
              ~min_path_support:spec.Spec.min_path_support result
          in
          let estimates =
            Store.estimates_of_result ~posterior:p.posterior result
              ~categories:p.categories
          in
          let gate_sweeps =
            Option.map
              (fun draws -> burn_in + draws)
              (Because.Infer.gate_draws result)
          in
          Ok
            { status = Because.Infer.status result;
              estimates;
              obs_count = List.length observations;
              gate_sweeps })
