(** Work-stealing task pool over OCaml 5 domains.

    The shared fan-out primitive: inference spreads MCMC chains over it and
    the simulator spreads per-prefix shards over it.  Tasks must be
    independent (each owns its mutable state; shared inputs are read-only)
    and at most [jobs] run at a time.

    Worker domains are {e persistent}: spawned lazily on first use, tuned
    for sampler workloads (32 MB minor heap, lazier major GC), then parked
    and reused across batches — spawning a domain forces a stop-the-world
    synchronisation, so per-call spawning made repeated fan-outs pay that
    cost every interval.  When a pool is already mid-batch (a nested call,
    or a concurrent submitter), the batch runs inline on the calling
    domain: its workers are busy, and fresh domains would only
    oversubscribe the cores.  Which path runs never affects the results. *)

type pool
(** A persistent set of worker domains plus the submission protocol. *)

val create : workers:int -> pool
(** [create ~workers] makes a dedicated pool that will spawn at most
    [workers] domains (lazily, on first demanding submission).  Raises
    [Invalid_argument] if [workers <= 0].  Workers are process-lifetime:
    there is no shutdown — parked domains cost nothing but memory. *)

val shared_pool : pool Lazy.t
(** The process-wide pool used by {!run_tasks}, sized to the hardware
    ([Domain.recommended_domain_count () - 1] workers — zero on a single
    core, where the submitter runs every task itself). *)

val worker_count : pool -> int
(** Workers spawned so far (grows on demand, never shrinks). *)

val run : pool -> jobs:int -> (unit -> 'a) array -> 'a array
(** [run pool ~jobs tasks] runs every task and returns their results in
    task-array order — the order (and, when tasks draw from pre-split RNG
    streams, the values) are identical for every [jobs] and for every
    pool.  At most [min jobs (Array.length tasks)] tasks run concurrently;
    a pool narrower than [jobs] runs at pool width, and a busy pool runs
    the batch on the caller alone, same results.  Raises
    [Invalid_argument] if [jobs < 1].

    If a task raises, no further tasks are started (in-flight ones run to
    completion — cancellation is cooperative), and the first exception is
    re-raised on the caller with its original backtrace.  The pool is left
    ready for the next batch. *)

val run_tasks : jobs:int -> (unit -> 'a) array -> 'a array
(** [run_tasks ~jobs tasks] is [run shared ~jobs tasks] on {!shared_pool} —
    the drop-in entry point virtually all callers want. *)
