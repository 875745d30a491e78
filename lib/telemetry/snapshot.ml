(* Pure snapshot data: what a registry looked like at one instant, after
   merging every per-domain shard.  No clocks, no mutation — the exporters
   and the CLI summary all read this one structure. *)

let n_buckets = 64

(* Bucket [k] holds observations in [2^(k-17), 2^(k-16)): frexp exponent
   plus a 16 offset, so bucket 17 is [1, 2) and bucket 0 absorbs everything
   below 2^-16.  The top bucket absorbs overflow. *)
let bucket_offset = 16

let bucket_of v =
  if not (v > 0.0) then 0
  else
    let _, e = Float.frexp v in
    max 0 (min (n_buckets - 1) (e + bucket_offset))

(* Exclusive upper edge of bucket [k]; [infinity] for the overflow bucket. *)
let bucket_upper k =
  if k >= n_buckets - 1 then Float.infinity
  else Float.ldexp 1.0 (k - bucket_offset)

type hist = { buckets : int array; count : int; sum : float }

let hist_of_buckets buckets ~sum =
  { buckets; count = Array.fold_left ( + ) 0 buckets; sum }

(* Elementwise integer sums: exactly associative and commutative, which is
   what makes shard-order-independent merging safe (property-tested). *)
let merge_hist a b =
  if Array.length a.buckets <> Array.length b.buckets then
    invalid_arg "Snapshot.merge_hist: bucket count mismatch";
  {
    buckets = Array.init (Array.length a.buckets) (fun k -> a.buckets.(k) + b.buckets.(k));
    count = a.count + b.count;
    sum = a.sum +. b.sum;
  }

let hist_mean h =
  if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

type span = {
  name : string;
  domain : int;       (* numeric id of the domain that ran it *)
  start_ns : int64;   (* monotonic clock, comparable within one process *)
  dur_ns : int64;
}

type t = {
  counters : (string * int) list;     (* sorted by name *)
  gauges : (string * float) list;     (* sorted by name; shard values summed *)
  hists : (string * hist) list;       (* sorted by name *)
  spans : span list;                  (* sorted by start time *)
  dropped_spans : int;                (* ring-buffer overwrites, total *)
}

let empty =
  { counters = []; gauges = []; hists = []; spans = []; dropped_spans = 0 }

let counter t name = List.assoc_opt name t.counters
let gauge t name = List.assoc_opt name t.gauges
let hist t name = List.assoc_opt name t.hists

let seconds_of_ns ns = Int64.to_float ns /. 1e9

(* Distinct span names with occurrence count and total duration, in order of
   first start — the "phase wall-times" rollup. *)
let span_rollup t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s : span) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (n, total) -> Hashtbl.replace tbl s.name (n + 1, Int64.add total s.dur_ns)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (1, s.dur_ns))
    t.spans;
  List.rev_map
    (fun name ->
      let n, total = Hashtbl.find tbl name in
      (name, n, total))
    !order

let pp_summary fmt (s : t) =
  let rollup = span_rollup s in
  if rollup <> [] then begin
    Format.fprintf fmt "phase wall-times:@.";
    List.iter
      (fun (name, n, total) ->
        Format.fprintf fmt "  %-36s %9.3f s" name (seconds_of_ns total);
        if n > 1 then Format.fprintf fmt "  (%d spans)" n;
        Format.fprintf fmt "@.")
      rollup
  end;
  if s.counters <> [] then begin
    Format.fprintf fmt "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  %-36s %12d@." name v)
      s.counters
  end;
  if s.gauges <> [] then begin
    Format.fprintf fmt "gauges:@.";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  %-36s %12.4g@." name v)
      s.gauges
  end;
  if s.hists <> [] then begin
    Format.fprintf fmt "histograms:@.";
    List.iter
      (fun (name, h) ->
        Format.fprintf fmt "  %-36s count %d  mean %.4g@." name h.count
          (hist_mean h))
      s.hists
  end;
  if s.dropped_spans > 0 then
    Format.fprintf fmt "dropped spans (ring overflow): %d@." s.dropped_spans
