(** Serialized form of a sampler's mid-run state.

    One variant per resumable sampler, wrapping the transparent state
    record the sampler itself defines.  The encode/decode pair is the only
    place the on-disk layout of MCMC state is known.

    Kept draws are stored flat (row-major) under tags 3/4. *)

type t =
  | Mh of Because_mcmc.Metropolis.state
  | Hmc of Because_mcmc.Hmc.state

val encode : Codec.writer -> t -> unit

val decode : Codec.reader -> t
(** Raises {!Codec.Malformed} on an unrecognized or inconsistent
    serialization — including the retired row-array tags 0/1/2, which a
    checkpoint store then quarantines like a checksum failure. *)
