(* Work-stealing task pool over OCaml 5 domains.

   Extracted from the inference driver so every subsystem that fans work out
   over domains (MCMC chains, per-prefix simulation shards, ...) shares one
   audited implementation.  Workers grab the next index off a shared atomic
   counter and write into disjoint result slots, so the output order is that
   of the task array regardless of [jobs].

   Worker domains are spawned once (lazily, up to a cap) and reused across
   batches, parked on a condition variable between them.  Spawning a domain
   costs a stop-the-world synchronisation of every running domain, so
   spawn-per-call made repeated small fan-outs (per-interval inference,
   per-campaign simulation) pay that tax over and over.  Pool workers also
   run with a larger minor heap and a lazier major GC (see
   [tune_worker_gc]) — minor collections are stop-the-world across *all*
   domains in OCaml 5, so fewer, bigger collections is what makes
   chain-parallel sampling scale.

   A batch submitted while the pool is busy (a nested [run] from inside a
   pool task, or a concurrent submitter such as a service-mode campaign
   worker) runs inline on the submitting domain.  The pool's workers are
   already occupied, so fresh domains would only oversubscribe the cores;
   inline keeps every caller deadlock-free and the domain count bounded by
   the pool width.

   Both paths produce bit-identical results: scheduling only decides *who*
   runs a task, never *what* it computes, and results land in task order. *)

(* Larger per-domain minor heap (32 MB) + lazier major GC on pool workers.
   Minor collections synchronise every domain, so the default 256k-word
   nursery makes allocation-heavy samplers serialize on GC long before they
   saturate the cores. *)
let tune_worker_gc () =
  let g = Gc.get () in
  Gc.set
    {
      g with
      Gc.minor_heap_size = max g.Gc.minor_heap_size (1 lsl 22);
      space_overhead = max g.Gc.space_overhead 200;
    }

(* One submitted fan-out.  [run i] executes task [i] and never raises (task
   exceptions are captured inside the closure); [completed] counts tasks
   that finished *or were skipped* after a failure, so it always reaches
   [n] and the submitter can always wake up.  [seats] caps how many pool
   workers may join, enforcing the caller's [jobs] bound. *)
type batch = {
  run : int -> unit;
  n : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  seats : int Atomic.t;
}

type pool = {
  max_workers : int;  (* upper bound on spawned workers, >= 0 *)
  submit : Mutex.t;   (* held by the submitter for a whole batch *)
  lock : Mutex.t;     (* guards [current] / [n_workers] and the conditions *)
  work : Condition.t; (* a new batch was published *)
  done_ : Condition.t; (* a batch just completed *)
  mutable current : batch option;
  mutable n_workers : int;
}

let rec take_seat seats =
  let s = Atomic.get seats in
  s > 0 && (Atomic.compare_and_set seats s (s - 1) || take_seat seats)

(* Claim-and-run until the batch's index counter is exhausted.  Called
   without [pool.lock]; the thread that completes the last task broadcasts
   [done_] under the lock so the submitter's check-then-wait cannot miss
   it. *)
let drain pool b =
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.run i;
      let c = 1 + Atomic.fetch_and_add b.completed 1 in
      if c = b.n then begin
        Mutex.lock pool.lock;
        Condition.broadcast pool.done_;
        Mutex.unlock pool.lock
      end;
      claim ()
    end
  in
  claim ()

(* Pool workers live for the process: park between batches, join any newly
   published batch at most once (tracked by physical equality on the batch
   record), respecting its seat budget. *)
let worker pool () =
  tune_worker_gc ();
  let last = ref None in
  Mutex.lock pool.lock;
  let rec loop () =
    (match pool.current with
    | Some b
      when (match !last with Some l -> l != b | None -> true)
           && take_seat b.seats ->
        last := Some b;
        Mutex.unlock pool.lock;
        drain pool b;
        Mutex.lock pool.lock
    | _ -> Condition.wait pool.work pool.lock);
    loop ()
  in
  loop ()

let create ~workers =
  if workers <= 0 then invalid_arg "Parallel.create: workers must be positive";
  {
    max_workers = workers;
    submit = Mutex.create ();
    lock = Mutex.create ();
    work = Condition.create ();
    done_ = Condition.create ();
    current = None;
    n_workers = 0;
  }

(* The process-wide pool every [run_tasks] call shares.  Sized to the
   machine: more workers than cores only adds GC synchronisation, so an
   oversubscribed [jobs] runs at hardware width (results are unchanged —
   only the schedule differs).  On a single core this is zero workers and
   the submitter runs every task itself. *)
let shared_pool =
  lazy
    {
      max_workers = max 0 (Domain.recommended_domain_count () - 1);
      submit = Mutex.create ();
      lock = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      current = None;
      n_workers = 0;
    }

(* Called with [pool.lock] held.  Worker domains are deliberately never
   joined: they are process-lifetime infrastructure, parked on [work] when
   idle. *)
let ensure_workers pool target =
  while pool.n_workers < min target pool.max_workers do
    pool.n_workers <- pool.n_workers + 1;
    ignore (Domain.spawn (worker pool) : unit Domain.t)
  done

let worker_count pool =
  Mutex.lock pool.lock;
  let n = pool.n_workers in
  Mutex.unlock pool.lock;
  n

(* Requires [pool.submit] to be held by the caller. *)
let run_pooled pool ~workers tasks results =
  let n = Array.length tasks in
  let failed : (exn * Printexc.raw_backtrace) option Atomic.t =
    Atomic.make None
  in
  (* First task exception wins; once set, remaining claimed tasks are
     skipped (in-flight ones finish — cancellation is cooperative) but
     still counted, and the exception is re-raised on the submitter with
     its original backtrace. *)
  let run i =
    if Atomic.get failed = None then
      match tasks.(i) () with
      | r -> results.(i) <- Some r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failed None (Some (e, bt)))
  in
  let b =
    {
      run;
      n;
      next = Atomic.make 0;
      completed = Atomic.make 0;
      seats = Atomic.make (workers - 1);
    }
  in
  Mutex.lock pool.lock;
  ensure_workers pool (workers - 1);
  pool.current <- Some b;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  drain pool b;
  Mutex.lock pool.lock;
  while Atomic.get b.completed < n do
    Condition.wait pool.done_ pool.lock
  done;
  pool.current <- None;
  Mutex.unlock pool.lock;
  match Atomic.get failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run pool ~jobs tasks =
  if jobs < 1 then invalid_arg "Parallel.run: jobs must be positive";
  let n = Array.length tasks in
  let results = Array.make n None in
  let workers = min jobs n in
  (* [try_lock] rather than [lock]: a nested call from inside a pool task
     would deadlock waiting for its own batch, and independent concurrent
     submitters shouldn't wait for each other — both run inline instead. *)
  if workers > 1 && Mutex.try_lock pool.submit then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool.submit)
      (fun () -> run_pooled pool ~workers tasks results)
  else Array.iteri (fun i task -> results.(i) <- Some (task ())) tasks;
  Array.map Option.get results

let run_tasks ~jobs tasks =
  if jobs < 1 then invalid_arg "Parallel.run_tasks: jobs must be positive";
  run (Lazy.force shared_pool) ~jobs tasks
