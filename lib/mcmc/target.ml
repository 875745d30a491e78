type support = Unit_interval | Unbounded

type cache = {
  cached_delta : int -> float -> float;
  cached_commit : int -> float -> unit;
  cached_state : unit -> float array;
  cached_restore : float array -> unit;
}

type t = {
  dim : int;
  support : support;
  log_density : float array -> float;
  grad_log_density : (float array -> float array) option;
  log_density_delta : (float array -> int -> float -> float) option;
  make_cache : (float array -> cache) option;
}

let create ?grad ?delta ?cache ~dim ~support log_density =
  if dim <= 0 then invalid_arg "Target.create: dim must be positive";
  { dim; support; log_density; grad_log_density = grad;
    log_density_delta = delta; make_cache = cache }

(* Generic cache built from the stateless pieces: keeps its own copy of the
   point and evaluates deltas with [log_density_delta] (or a full recompute).
   Correct for any target, fast only when a real [delta] exists — model
   implementations should supply a bespoke [?cache] instead. *)
type probe = { mutable coord : int; mutable value : float; mutable d : float }

let default_cache t p0 =
  let point = Array.copy p0 in
  let lp = ref (t.log_density point) in
  (* Scratch proposal buffer: equal to [point] between calls, so a delta
     costs one store + one restore instead of a full [Array.copy]. *)
  let scratch = Array.copy point in
  let eval =
    match t.log_density_delta with
    | Some d -> fun i v -> d point i v
    | None ->
        fun i v ->
          scratch.(i) <- v;
          let d = t.log_density scratch -. !lp in
          scratch.(i) <- point.(i);
          d
  in
  (* The last probe: a sampler that commits the value it just probed
     (single-site MH) reuses that delta instead of evaluating it twice. *)
  let last = { coord = -1; value = nan; d = nan } in
  let delta i v =
    let d = eval i v in
    last.coord <- i;
    last.value <- v;
    last.d <- d;
    d
  in
  let commit i v =
    let d = if i = last.coord && v = last.value then last.d else eval i v in
    last.coord <- -1;
    lp := !lp +. d;
    point.(i) <- v;
    scratch.(i) <- v
  in
  let dim = Array.length point in
  let cached_state () = Array.append point [| !lp |] in
  let cached_restore s =
    if Array.length s <> dim + 1 then
      invalid_arg "Target.default_cache: saved cache state has wrong size";
    Array.blit s 0 point 0 dim;
    Array.blit s 0 scratch 0 dim;
    last.coord <- -1;
    lp := s.(dim)
  in
  { cached_delta = delta; cached_commit = commit; cached_state;
    cached_restore }

let cache_at t p0 =
  match t.make_cache with Some mk -> mk p0 | None -> default_cache t p0

let with_coordinate p i v =
  let p' = Array.copy p in
  p'.(i) <- v;
  p'

let check_gradient t ~at ~eps ~tol =
  match t.grad_log_density with
  | None -> Error "target has no gradient"
  | Some grad ->
      let g = grad at in
      let rec check i =
        if i = t.dim then Ok ()
        else begin
          let plus = with_coordinate at i (at.(i) +. eps) in
          let minus = with_coordinate at i (at.(i) -. eps) in
          let fd = (t.log_density plus -. t.log_density minus) /. (2.0 *. eps) in
          let err = Float.abs (fd -. g.(i)) in
          let scale = Float.max 1.0 (Float.abs fd) in
          if err /. scale > tol then
            Error
              (Printf.sprintf
                 "gradient mismatch at coordinate %d: analytic=%.8g fd=%.8g" i
                 g.(i) fd)
          else check (i + 1)
        end
      in
      check 0
