open Because_bgp
module Sc = Because_scenario
module Supervise = Because_recover.Supervise
module Manifest = Because_telemetry.Manifest

type estimate = {
  asn : Asn.t;
  mean : float;
  lo : float;
  hi : float;
  category : int;
  damping : bool;
}

type health =
  | Queued
  | Running
  | Interrupted
  | Done of Supervise.status

let health_label = function
  | Queued -> "queued"
  | Running -> "running"
  | Interrupted -> "interrupted"
  | Done s -> Supervise.status_label s

type entry = {
  spec : Spec.t;
  seq : int;
  mutable health : health;
  mutable attempts : int;
  mutable estimates : estimate array;
  mutable queue_wait_s : float;
  mutable epoch : int;
  mutable warm : bool;
  mutable gate_sweeps : int option;
  mutable obs_count : int;
  mutable submitted_ns : int64 option;
}

type t = { by_id : (string, entry) Hashtbl.t }

let create () = { by_id = Hashtbl.create 16 }

let add t (spec : Spec.t) ~seq =
  if Hashtbl.mem t.by_id spec.Spec.id then
    invalid_arg ("Store.add: duplicate id " ^ spec.Spec.id);
  let entry =
    { spec; seq; health = Queued; attempts = 0; estimates = [||];
      queue_wait_s = 0.0; epoch = 1; warm = false; gate_sweeps = None;
      obs_count = 0; submitted_ns = None }
  in
  Hashtbl.replace t.by_id spec.Spec.id entry;
  entry

let find t ~id = Hashtbl.find_opt t.by_id id

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.by_id []
  |> List.sort (fun a b -> Int.compare a.seq b.seq)

let next_seq t = Hashtbl.fold (fun _ e acc -> max acc (e.seq + 1)) t.by_id 0

let pending e = match e.health with Queued | Interrupted -> true | _ -> false
let is_running e = match e.health with Running -> true | _ -> false
let count p t = Hashtbl.fold (fun _ e n -> if p e then n + 1 else n) t.by_id 0
let depth t = count pending t
let running t = count is_running t

let next_pending t =
  Hashtbl.fold
    (fun _ e best ->
      match best with
      | Some b when b.seq < e.seq -> best
      | _ -> if pending e then Some e else best)
    t.by_id None

let labels = [ "queued"; "running"; "interrupted"; "healthy"; "degraded";
               "insufficient" ]

let counts t =
  let es = entries t in
  List.map
    (fun l ->
      (l, List.length (List.filter (fun e -> health_label e.health = l) es)))
    labels

let rollup t =
  let done_ =
    List.filter_map
      (fun e -> match e.health with Done s -> Some (e, s) | _ -> None)
      (entries t)
  in
  let tagged f =
    List.concat_map
      (fun (e, s) ->
        List.map
          (fun r -> e.spec.Spec.id ^ ": " ^ r)
          (f s))
      done_
  in
  let insufficient =
    tagged (function Supervise.Insufficient rs -> rs | _ -> [])
  in
  let degraded = tagged (function Supervise.Degraded rs -> rs | _ -> []) in
  if insufficient <> [] then Supervise.Insufficient insufficient
  else if degraded <> [] then Supervise.Degraded degraded
  else Supervise.Healthy

let estimates_of_result ?posterior result ~categories =
  let posterior =
    match posterior with
    | Some p -> p
    | None -> Because.Posterior.summarize result
  in
  Array.map
    (fun (m : Because.Posterior.marginal) ->
      let cat =
        match List.assoc_opt m.Because.Posterior.asn categories with
        | Some c -> c
        | None -> Because.Categorize.C3
      in
      { asn = m.Because.Posterior.asn;
        mean = m.Because.Posterior.mean;
        lo = m.Because.Posterior.hdpi.lo;
        hi = m.Because.Posterior.hdpi.hi;
        category = Because.Categorize.to_int cat;
        damping = Because.Categorize.damping cat })
    posterior.Because.Posterior.pooled

let estimates_of_outcome (outcome : Sc.Campaign.outcome) =
  match outcome.Sc.Campaign.result with
  | None -> [||]
  | Some result ->
      estimates_of_result ?posterior:outcome.Sc.Campaign.posterior result
        ~categories:outcome.Sc.Campaign.categories

(* Reports must be bit-for-bit reproducible across drain/kill/resume, so
   every float is printed at full precision and nothing run-dependent
   (attempts, wall-clock, queue position) appears. *)
let report entry =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# because service report\n";
  Buffer.add_string b ("spec: " ^ Spec.to_line entry.spec ^ "\n");
  let status =
    match entry.health with
    | Done s -> s
    | Queued | Running | Interrupted ->
        invalid_arg "Store.report: campaign not finished"
  in
  Buffer.add_string b ("status: " ^ Supervise.status_label status ^ "\n");
  List.iter
    (fun r -> Buffer.add_string b ("reason: " ^ r ^ "\n"))
    (Supervise.status_reasons status);
  (* Stream-only lines: a non-streaming report keeps its exact historical
     bytes.  All three values are deterministic functions of the spec, the
     epoch and the observation file, so resumed reports still reproduce. *)
  if entry.spec.Spec.obs <> None then begin
    Buffer.add_string b
      (Printf.sprintf "epoch: %d %s\n" entry.epoch
         (if entry.warm then "warm" else "cold"));
    Buffer.add_string b
      (Printf.sprintf "observations: %d\n" entry.obs_count);
    match entry.gate_sweeps with
    | Some n -> Buffer.add_string b (Printf.sprintf "gate_sweeps: %d\n" n)
    | None -> ()
  end;
  Buffer.add_string b
    (Printf.sprintf "ases: %d\n" (Array.length entry.estimates));
  let flagged =
    Array.to_list entry.estimates
    |> List.filter (fun e -> e.damping)
    |> List.map (fun e -> Asn.to_string e.asn)
  in
  Buffer.add_string b
    (Printf.sprintf "flagged: %s\n" (String.concat "," flagged));
  Array.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "as %s mean=%.17g lo=%.17g hi=%.17g cat=%d%s\n"
           (Asn.to_string e.asn) e.mean e.lo e.hi e.category
           (if e.damping then " DAMPING" else "")))
    entry.estimates;
  Buffer.contents b

let to_json t ~draining ~limit =
  let b = Buffer.create 2048 in
  let status = rollup t in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"because-service/1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"rollup\": \"%s\",\n" (Supervise.status_label status));
  Buffer.add_string b
    (Printf.sprintf "  \"draining\": %b,\n  \"queue\": { \"depth\": %d, \"limit\": %d },\n"
       draining (depth t) limit);
  Buffer.add_string b "  \"counts\": {";
  Buffer.add_string b
    (String.concat ", "
       (List.map
          (fun (l, n) -> Printf.sprintf "\"%s\": %d" l n)
          (counts t)));
  Buffer.add_string b "},\n  \"campaigns\": [\n";
  let es = entries t in
  List.iteri
    (fun i e ->
      let flagged =
        Array.to_list e.estimates
        |> List.filter (fun est -> est.damping)
        |> List.map (fun est -> "\"" ^ Asn.to_string est.asn ^ "\"")
      in
      let reasons =
        match e.health with
        | Done s ->
            List.map
              (fun r -> "\"" ^ Manifest.json_escape r ^ "\"")
              (Supervise.status_reasons s)
        | _ -> []
      in
      (* Stream campaigns carry extra fields; classic entries keep the
         historical object shape byte-for-byte. *)
      let stream =
        if e.spec.Spec.obs = None then ""
        else
          Printf.sprintf ", \"epoch\": %d, \"warm\": %b, \
                          \"observations\": %d%s"
            e.epoch e.warm e.obs_count
            (match e.gate_sweeps with
            | Some n -> Printf.sprintf ", \"gate_sweeps\": %d" n
            | None -> "")
      in
      Buffer.add_string b
        (Printf.sprintf
           "    { \"id\": \"%s\", \"seq\": %d, \"health\": \"%s\", \
            \"attempts\": %d, \"ases\": %d, \"flagged\": [%s], \
            \"reasons\": [%s]%s }%s\n"
           (Manifest.json_escape e.spec.Spec.id) e.seq (health_label e.health)
           e.attempts (Array.length e.estimates)
           (String.concat ", " flagged)
           (String.concat ", " reasons) stream
           (if i < List.length es - 1 then "," else "")))
    es;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let matrix t =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-20s %-12s %8s %6s  %s\n" "campaign" "health"
       "attempts" "ases" "flagged");
  List.iter
    (fun e ->
      let flagged =
        Array.to_list e.estimates
        |> List.filter (fun est -> est.damping)
        |> List.map (fun est -> Asn.to_string est.asn)
      in
      Buffer.add_string b
        (Printf.sprintf "%-20s %-12s %8d %6d  %s\n" e.spec.Spec.id
           (health_label e.health) e.attempts (Array.length e.estimates)
           (String.concat "," flagged)))
    (entries t);
  Buffer.contents b
