(** Per-chain checkpoint hooks for the inference driver.

    The driver sees only {!hooks}: a way to load the last snapshot for a
    chain key and a way to save one.  Where snapshots are stored is the
    hooks' builder's business (the campaign's [Recovery.chain_hooks], over
    a {!Checkpoint} store); when ({!make_control}'s cadence) is decided
    here, so the sampling code has no filesystem or policy knowledge. *)

type saved = {
  state : Sampler_state.t;
  prior_warnings : string list;
      (** Restart warnings accumulated before the snapshot, so a resumed
          chain reports exactly what an uninterrupted one would. *)
}

type hooks = {
  load : key:string -> saved option;
  save : key:string -> sweep:int -> saved -> unit;
  every_sweeps : int option;  (** Save every N completed sweeps. *)
  every_seconds : float option;  (** …or when this much wall time passed. *)
}

val default_every_seconds : float
(** Default wall-clock cadence (30 s) — chosen so checkpointing costs
    nothing measurable on runs that take minutes and at most one redundant
    save on runs that take seconds. *)

val encode_saved : saved -> string
val decode_saved : string -> saved
(** Raises {!Codec.Malformed} on bad input. *)

val save_now :
  hooks ->
  key:string ->
  prior_warnings:string list ->
  sweep:int ->
  state:(unit -> Sampler_state.t) ->
  unit
(** Persist the chain's state unconditionally — the drain path: a chain
    told to stop ({!Supervise.request_drain}) writes one final snapshot at
    the sweep it reached, so a later resume loses no work. *)

val make_control :
  hooks ->
  key:string ->
  final_sweep:int ->
  prior_warnings:string list ->
  sweep:int ->
  state:(unit -> Sampler_state.t) ->
  unit
(** Per-sweep callback for a sampler's [?control] (after partial
    application up to [prior_warnings]).  Saves when the sweep or
    wall-clock cadence is due, and always on [final_sweep] so completed
    chains resume instantly. *)
