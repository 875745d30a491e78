(* Per-chain supervision: wall-clock deadlines, sweep budgets, graceful
   drain, and the campaign-level health verdict.

   Budgets are enforced *cooperatively*: the sampler calls [tick] once per
   completed sweep and we raise [Aborted] when a limit is crossed.  That
   keeps cancellation deterministic for the sweep budget (always after the
   same sweep) while the wall-clock deadline — inherently racy — is only
   consulted every few sweeps to keep the healthy-path cost at an integer
   compare. *)

exception Aborted of string

type budget = { deadline_s : float option; max_sweeps : int option }

let unlimited = { deadline_s = None; max_sweeps = None }
let is_unlimited b = b.deadline_s = None && b.max_sweeps = None

type token = {
  budget : budget;
  label : string;
  start_ns : int64;
  mutable sweeps : int;
}

(* How often (in sweeps) the wall-clock deadline is consulted; the sweep
   budget itself is checked every tick. *)
let deadline_stride = 32

let start ~label budget =
  { budget; label; start_ns = Monotonic_clock.now (); sweeps = 0 }

let elapsed_s token =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) token.start_ns) *. 1e-9

let sweeps token = token.sweeps

let abort token fmt =
  Printf.ksprintf (fun s -> raise (Aborted (token.label ^ ": " ^ s))) fmt

let check token =
  (match token.budget.max_sweeps with
  | Some limit when token.sweeps >= limit ->
      abort token "sweep budget exhausted (%d sweeps)" limit
  | _ -> ());
  match token.budget.deadline_s with
  | Some limit when token.sweeps mod deadline_stride = 0 ->
      let t = elapsed_s token in
      if t > limit then
        abort token "deadline exceeded (%.1fs elapsed, budget %.1fs)" limit t
  | _ -> ()

let tick token =
  token.sweeps <- token.sweeps + 1;
  check token

(* --- cooperative drain --- *)

(* One process-wide flag, not per-token: a drain (SIGTERM, service
   shutdown) applies to every chain of every campaign in the process, and
   the flag must be readable from any worker domain without plumbing a
   handle through the sampler layers.  Signal handlers only set it; sampler
   control callbacks poll it once per sweep. *)
exception Drained

let drain_flag = Atomic.make false
let request_drain () = Atomic.set drain_flag true
let clear_drain () = Atomic.set drain_flag false
let draining () = Atomic.get drain_flag
let check_drain () = if Atomic.get drain_flag then raise Drained

(* --- campaign health --- *)

type status = Healthy | Degraded of string list | Insufficient of string list

let exit_code = function
  | Healthy -> 0
  | Degraded _ -> 3
  | Insufficient _ -> 4

let status_label = function
  | Healthy -> "healthy"
  | Degraded _ -> "degraded"
  | Insufficient _ -> "insufficient"

let status_reasons = function
  | Healthy -> []
  | Degraded rs | Insufficient rs -> rs
