(** Streaming observation intake: one inference epoch over a spool file.

    A streaming campaign skips the simulator entirely — its labeled-path
    observations arrive in an external spool file (one
    [rfd|clean ASN ASN ...] line per path) that grows between runs.  Each
    run of the spec is an {e epoch}: the file is re-read in full, the
    posterior re-inferred, and — from epoch 2 on — the chains start at the
    previous epoch's posterior means (the estimates on the campaign's
    {!Store.entry}) instead of the samplers' cold defaults.  The
    convergence gate ({!Because.Infer.gate_draws}) measures what that warm
    start buys: the sweeps-to-convergence recorded per epoch is what the
    bench compares warm vs cold. *)

type outcome = {
  status : Because_recover.Supervise.status;
  estimates : Store.estimate array;
  obs_count : int;
  gate_sweeps : int option;
      (** Burn-in + gated retained draws, when the R̂ gate passed. *)
}

val parse_observations :
  string -> ((Because_bgp.Asn.t list * bool) list, string) result
(** Parse a labeled-path file: the one observation grammar, shared by
    streaming spools and [because infer].  Each line is
    [rfd ASN ASN ...] (damping observed on the path) or
    [clean ASN ASN ...]: lowercase label, then at least one decimal ASN in
    [\[0, 2{^32})], tokens separated by spaces.  Blank lines and
    lines starting with [#] are ignored; surrounding whitespace (a CRLF
    line end included) is trimmed.  [Error] names the first offending
    line ("line N: ...").  A missing file is an error, reported by its
    I/O reason without the path ({!Because_collector.Mrt.io_error}); the
    admission layer validates the spec, not the file, which may
    legitimately appear later. *)

val warm_init :
  Store.estimate array -> Because_bgp.Asn.t array -> float array
(** [warm_init prior nodes] is a warm epoch's chain start: for each node,
    its mean in [prior] clamped to [\[1e-4, 1 - 1e-4\]], or 0.5 for an
    AS [prior] lacks. *)

val run :
  spec:Spec.t ->
  epoch:int ->
  prior:Store.estimate array ->
  telemetry:Because_telemetry.Registry.t ->
  supervise:Because_recover.Supervise.budget ->
  jobs:int ->
  unit ->
  (outcome, string) result
(** Run epoch [epoch] of [spec] (which must have [obs = Some path]).
    Deterministic in (spec, file contents, [epoch], [prior]): the RNG
    derives from the spec seed and [epoch], so re-running the same epoch
    reproduces it bit-for-bit.  A non-empty [prior] — the previous
    epoch's estimates — warm-starts the chains at {!warm_init} and cuts
    burn-in to a quarter; [\[||\]] runs cold.  May raise
    {!Because_recover.Supervise.Drained} when a service drain lands
    mid-epoch. *)
