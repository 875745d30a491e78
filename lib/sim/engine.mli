(** Generic discrete-event loop. *)

type 'a t

val create : unit -> 'a t

val now : 'a t -> float
(** Time of the event currently (or last) being processed; 0 initially. *)

val schedule : 'a t -> time:float -> 'a -> unit
(** Events scheduled in the past are clamped to [now] (they run next). *)

val pending : 'a t -> int

val processed : 'a t -> int
(** Total events handled so far — the simulator's throughput denominator. *)

val max_pending : 'a t -> int
(** High-water mark of the event queue — the simulator's peak memory
    pressure; the maximum over shards is the [sim.max_queue_depth] gauge. *)

val run : 'a t -> until:float -> handler:(now:float -> 'a -> unit) -> unit
(** Process events in time order until the queue drains or the next event
    would exceed [until].  The handler may schedule further events. *)

val step : 'a t -> handler:(now:float -> 'a -> unit) -> bool
(** Process a single event; [false] when the queue is empty. *)
