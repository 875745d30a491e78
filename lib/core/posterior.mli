(** Marginal posterior summaries (§5.1.2).

    For each AS the paper summarises the marginal distribution P(pᵢ ∣ D) by
    its mean and its 95 % Highest Posterior Density Interval; Fig. 11 plots
    the mean against a certainty score defined as 1 − HDPI width.  The
    samplers vote separately (each run's summary) and the reported estimate
    pools every run's draws. *)

open Because_bgp

type marginal = {
  asn : Asn.t;
  index : int;
  mean : float;
  hdpi : Because_stats.Hdpi.t;
  certainty : float;  (** 1 − HDPI width. *)
}

type t = {
  runs : (string * marginal array) list;
      (** [(sampler-name, one summary per node)] for each sampler run, in
          {!Infer.result}[.runs] order. *)
  pooled : marginal array;
      (** One summary per node over every run's draws pooled, in run
          order; [\[||\]] when no run survived. *)
}

val summarize : ?mass:float -> Infer.result -> t
(** Both views in one pass over the draws ([mass] defaults to 0.95).  Each
    mean is the left-to-right sum of the marginal's draws (the pooled one
    in the runs' concatenated order) and each HDPI that of
    {!Because_stats.Hdpi.compute}, bit for bit.  Categorisation,
    pinpointing, the stored estimates and the reports all read one
    summary. *)

val per_sampler : ?mass:float -> Infer.result -> (string * marginal array) list
(** [(summarize result).runs]. *)

val combined : ?mass:float -> Infer.result -> marginal array
(** [(summarize result).pooled]. *)
