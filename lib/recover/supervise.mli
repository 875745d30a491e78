(** Chain supervision: budgets, cooperative cancellation, graceful drain,
    and the campaign health verdict.

    A {!budget} caps a single chain by wall-clock and/or sweep count.  The
    sampler reports each completed sweep via {!tick} on its {!token};
    crossing a limit raises {!Aborted}, which the inference driver catches
    and converts into a degraded (heuristic-only) outcome instead of a
    failed run.  The sweep budget always fires after the same sweep, so
    budget-limited runs are as reproducible as completed ones. *)

exception Aborted of string
(** Raised by {!tick}/{!check} when a budget limit is crossed.  Samplers
    must let it propagate (it is not an error in the target density). *)

type budget = {
  deadline_s : float option;  (** Wall-clock limit per chain, seconds. *)
  max_sweeps : int option;  (** Sweep-count limit per chain. *)
}

val unlimited : budget

type token
(** One supervised chain execution: a budget plus a monotonic start time
    and a sweep counter. *)

val start : label:string -> budget -> token
(** [start ~label budget] begins supervision; [label] prefixes abort
    messages (e.g. ["mh-0"]). *)

val tick : token -> unit
(** Count one completed sweep and enforce the budget.  The sweep limit is
    checked every call; the wall-clock deadline every 32 sweeps (it is
    inherently timing-dependent, so precision buys nothing). *)

(** {1 Cooperative drain}

    A graceful shutdown (SIGTERM/SIGINT, service drain) is requested by
    setting one process-wide flag; sampler control callbacks poll it once
    per sweep, checkpoint their chain state and raise {!Drained}.  Unlike
    {!Aborted} — which marks a chain as over budget and degrades the
    campaign — {!Drained} propagates out of the whole run untouched: the
    interrupted campaign is neither failed nor degraded, just unfinished,
    and a resume completes it bit-for-bit. *)

exception Drained
(** Raised by {!check_drain} (and the inference driver's per-sweep control)
    once a drain was requested.  Never caught below the campaign driver. *)

val request_drain : unit -> unit
(** Ask every supervised chain in the process to checkpoint and stop at its
    next sweep boundary.  Async-signal-safe (one atomic store). *)

val clear_drain : unit -> unit
(** Reset the flag — a fresh service generation (or the next test) starts
    undrained. *)

val draining : unit -> bool
val check_drain : unit -> unit

(** {1 Campaign health} *)

type status =
  | Healthy
  | Degraded of string list
      (** Inference incomplete (budget-aborted or dead chains); results
          fall back to heuristic localization.  Reasons attached. *)
  | Insufficient of string list
      (** Not enough observations survived to attempt localization. *)

val exit_code : status -> int
(** Process exit code contract: 0 healthy, 3 degraded, 4 insufficient.
    (Hard failures exit 1 via the normal exception path.) *)

val status_label : status -> string
val status_reasons : status -> string list
