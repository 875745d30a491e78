(** Streaming observation intake: one inference epoch over a spool file.

    A streaming campaign skips the simulator entirely — its labeled-path
    observations arrive in an external spool file (one
    [rfd|clean ASN ASN ...] line per path) that grows between runs.  Each
    run of the spec is an {e epoch}: the file is re-read in full, the
    posterior re-inferred, and — from epoch 2 on — the chains start at the
    previous epoch's posterior means instead of the samplers' cold
    defaults.  The convergence gate ({!Because.Infer.gate_draws}) measures
    what that warm start buys: the sweeps-to-convergence recorded per
    epoch is what the bench compares warm vs cold. *)

type outcome = {
  status : Because_recover.Supervise.status;
  estimates : Store.estimate array;
  obs_count : int;
  gate_sweeps : int option;
      (** Burn-in + gated retained draws, when the R̂ gate passed. *)
  seed : Because_recover.Seed.t option;
      (** Posterior seed for the next epoch; [None] when inference
          produced no usable posterior. *)
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
    line ("line N: ...").  A missing file is an error (the admission
    layer validates the spec, not the file — it may legitimately appear
    later). *)

val seed_of_estimates :
  epoch:int ->
  gate_sweeps:int option ->
  Store.estimate array ->
  Because_recover.Seed.t option
(** The next epoch's seed: every estimate's posterior mean, ascending
    ASN.  Over {!Store.estimates_of_result} these are the [mean]s of
    {!Because.Posterior.combined}, bit for bit.  [None] for no estimates
    (no sampler run survived). *)

val run :
  spec:Spec.t ->
  seed:Because_recover.Seed.t option ->
  telemetry:Because_telemetry.Registry.t ->
  supervise:Because_recover.Supervise.budget ->
  jobs:int ->
  unit ->
  (outcome, string) result
(** Run one epoch of [spec] (which must have [obs = Some path]).
    Deterministic in (spec, file contents, [seed]): the RNG derives from
    the spec seed, so re-running the same epoch reproduces it bit-for-bit.
    [seed = Some _] warm-starts the chains at the seeded means and cuts
    burn-in to a quarter.  May raise {!Because_recover.Supervise.Drained}
    when a service drain lands mid-epoch. *)
