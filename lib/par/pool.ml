(* A fixed-size pool of worker domains (OCaml 5 [Domain] + [Mutex] /
   [Condition], no external dependencies) with deterministic fork-join
   fan-out.  Jobs write into slots indexed by task, so results land in
   submission order no matter which worker runs them.

   Every fan-out, plain or supervised, makes one placement decision
   (inline in the calling domain, or on a pool) and runs its jobs through
   one barrier: enqueue them, help drain the shared queue alongside the
   workers, wait for the last one.  Helping means a pool of [size] workers
   uses [size + 1] cores during a fan-out and a machine with one core
   still makes progress.  Calls made from inside a worker (nested
   parallelism) run inline instead of deadlocking on the fixed pool.  The
   join hook runs once after each fan-out's barrier.

   Supervision: [supervised_map] isolates per-task failures (index,
   message, backtrace), retries failed tasks in rounds, applies
   cooperative per-task timeouts, survives injected worker-domain crashes
   by respawning replacements, and degrades to sequential execution when
   domains cannot spawn at all.  Simulated faults (hangs, crashes) come
   from the active [Vfault] plan, keyed by task — never by worker — so
   outcomes are byte-identical across worker counts. *)

type t = {
  size : int;
  jobs : (unit -> bool) Queue.t;  (* [true]: the job's worker must die *)
  mutex : Mutex.t;
  nonempty : Condition.t;  (* signalled when jobs are enqueued or stopping *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  mutable alive : int;  (* workers still draining the queue *)
  mutable degraded : bool;  (* Domain.spawn failed: run inline instead *)
}

exception Task_failed of { index : int; exn : exn; backtrace : string }

(* Set in every worker domain: parallel entry points called from a worker
   fall back to sequential execution rather than blocking on a queue that
   only this very worker could drain. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Global kill-switch used by the benchmarks to time the serial baseline. *)
let sequential_flag = Atomic.make false

let set_sequential b = Atomic.set sequential_flag b
let sequential () = Atomic.get sequential_flag

(* --- supervision statistics (process-wide) ------------------------------- *)

type stats = {
  st_crashes : int;  (* injected worker-domain crashes observed *)
  st_respawned : int;  (* replacement workers spawned *)
  st_timeouts : int;  (* tasks cancelled at their deadline *)
  st_retries : int;  (* task re-executions after a failure *)
  st_failures : int;  (* tasks that exhausted their retry budget *)
  st_degraded : int;  (* fan-outs that fell back to sequential *)
}

let crashes = Atomic.make 0
let respawned = Atomic.make 0
let timeouts = Atomic.make 0
let retried = Atomic.make 0
let failures = Atomic.make 0
let degraded_runs = Atomic.make 0

let stats () =
  { st_crashes = Atomic.get crashes;
    st_respawned = Atomic.get respawned;
    st_timeouts = Atomic.get timeouts;
    st_retries = Atomic.get retried;
    st_failures = Atomic.get failures;
    st_degraded = Atomic.get degraded_runs }

let reset_stats () =
  List.iter
    (fun a -> Atomic.set a 0)
    [ crashes; respawned; timeouts; retried; failures; degraded_runs ]

(* --- worker lifecycle ----------------------------------------------------- *)

let take_job pool =
  Mutex.lock pool.mutex;
  let rec next () =
    match Queue.take_opt pool.jobs with
    | Some j -> Some j
    | None ->
        if pool.stopping then None
        else begin
          Condition.wait pool.nonempty pool.mutex;
          next ()
        end
  in
  let job = next () in
  Mutex.unlock pool.mutex;
  job

(* A job that returns [true] drew an injected crash, which kills the
   worker running it: the loop exits and the domain terminates, exactly
   like a real crashed worker.  An escaped exception is a bug in the job
   wrapper, but must not take the whole process down, so it also just
   ends the worker. *)
let rec worker_loop pool =
  match take_job pool with
  | None -> ()
  | Some job -> (
      match job () with
      | false -> worker_loop pool
      | true | exception _ ->
          Mutex.lock pool.mutex;
          pool.alive <- pool.alive - 1;
          Mutex.unlock pool.mutex)

(* A new domain starts with backtrace recording off, so a task failing on a
   worker would carry an empty backtrace in [Task_failed]; the worker
   records backtraces exactly when its spawner does. *)
let spawn_worker pool =
  let record = Printexc.backtrace_status () in
  Domain.spawn (fun () ->
      Printexc.record_backtrace record;
      Domain.DLS.set in_worker true;
      worker_loop pool)

let create ~size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let pool =
    { size; jobs = Queue.create (); mutex = Mutex.create ();
      nonempty = Condition.create (); stopping = false; workers = [];
      alive = 0; degraded = false }
  in
  (try
     for _ = 1 to size do
       let w = spawn_worker pool in
       pool.workers <- w :: pool.workers;
       pool.alive <- pool.alive + 1
     done
   with _ ->
     (* The runtime refused to spawn (more) domains.  Whatever workers did
        start still serve; with zero the pool runs everything inline. *)
     if pool.alive = 0 then pool.degraded <- true);
  pool

(* Replace workers lost to (injected) crashes before a fan-out.  If the
   runtime cannot spawn replacements the pool keeps whatever is alive and,
   at zero, degrades to inline execution. *)
let ensure_workers pool =
  Mutex.lock pool.mutex;
  let missing = pool.size - pool.alive in
  if missing > 0 && not pool.stopping then begin
    (try
       for _ = 1 to missing do
         let w = spawn_worker pool in
         pool.workers <- w :: pool.workers;
         pool.alive <- pool.alive + 1;
         Atomic.incr respawned
       done
     with _ -> if pool.alive = 0 then pool.degraded <- true)
  end;
  Mutex.unlock pool.mutex

let size pool = pool.size

let alive_workers pool =
  Mutex.lock pool.mutex;
  let n = pool.alive in
  Mutex.unlock pool.mutex;
  n

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- [];
  pool.alive <- 0

(* --- the shared default pool -------------------------------------------- *)

let default_pool = ref None
let default_lock = Mutex.create ()

let parse_jobs s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "must be a positive integer, got %d" n)
  | None -> Error (Printf.sprintf "malformed integer %S" s)

let jobs_warned = ref false

let jobs_override () =
  match Sys.getenv_opt "VECMODEL_JOBS" with
  | None -> None
  | Some s -> (
      match parse_jobs s with
      | Ok n -> Some n
      | Error e ->
          if not !jobs_warned then begin
            jobs_warned := true;
            Printf.eprintf
              "vecmodel: ignoring VECMODEL_JOBS (%s); using the default \
               worker count\n%!"
              e
          end;
          None)

let default_size () =
  match jobs_override () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

(* On a single-core host a worker domain adds cross-domain GC
   synchronisation without adding any parallelism, so fan-outs that would
   use the shared default pool run inline instead.  An explicit [?pool]
   argument or a [VECMODEL_JOBS] override still goes through the queue. *)
let inline_default () =
  jobs_override () = None && Domain.recommended_domain_count () < 2

let default () =
  Mutex.lock default_lock;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ~size:(default_size ()) in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_lock;
  pool

(* --- fork-join fan-out ---------------------------------------------------- *)

(* Inclusive index ranges covering [0, n), [chunk] indices each. *)
let ranges ~n ~chunk =
  let rec go lo acc =
    if lo >= n then List.rev acc
    else go (lo + chunk) ((lo, min (lo + chunk) n - 1) :: acc)
  in
  go 0 []

(* Join-point hook: run by the *submitting* domain after every fan-out's
   barrier, before task failures are re-raised.  This library cannot see
   the execution runtime, so consistency checks over state shared across
   workers (the sanitizer's master-buffer verification) are installed from
   above; an exception from the hook propagates to the submitter, so
   corruption of shared state is attributed here, ahead of any individual
   task failure it may have caused.  The hook must be cheap when idle and
   safe to call from any domain. *)
let join_check : (unit -> unit) option Atomic.t = Atomic.make None

let set_join_check f = Atomic.set join_check (Some f)

let run_join_check () =
  match Atomic.get join_check with Some f -> f () | None -> ()

(* The one inline-or-pool decision.  A fan-out runs inline in the calling
   domain in sequential mode, inside a worker (it would wait on a queue
   only this very worker could drain), on the default pool of a
   single-core host, and on a degraded pool, which [st_degraded] counts. *)
let placement pool =
  if sequential () || Domain.DLS.get in_worker
     || (Option.is_none pool && inline_default ())
  then None
  else
    let p = match pool with Some p -> p | None -> default () in
    if p.degraded then begin
      Atomic.incr degraded_runs;
      None
    end
    else Some p

(* The one barrier: replace lost workers, enqueue the jobs, help drain the
   queue, then wait for the last job, which another worker may still be
   running.  The submitter is not a worker: a crash drawn by a job it
   helps with was recorded by the job, and only the domain's death is
   dropped. *)
let barrier pool jobs =
  ensure_workers pool;
  let m = Mutex.create () in
  let finished = Condition.create () in
  let remaining = ref (List.length jobs) in
  let counted job () =
    Fun.protect job ~finally:(fun () ->
        Mutex.protect m (fun () ->
            decr remaining;
            if !remaining = 0 then Condition.broadcast finished))
  in
  Mutex.protect pool.mutex (fun () ->
      List.iter (fun job -> Queue.add (counted job) pool.jobs) jobs;
      Condition.broadcast pool.nonempty);
  let rec help () =
    match Mutex.protect pool.mutex (fun () -> Queue.take_opt pool.jobs) with
    | Some job ->
        ignore (job ());
        help ()
    | None -> ()
  in
  help ();
  Mutex.protect m (fun () ->
      while !remaining > 0 do
        Condition.wait finished m
      done)

(* One fan-out: [body run workers] submits its jobs through [run] (the
   barrier, or in-order execution when placed inline; [workers] is 0
   then), and the join hook runs once after it returns. *)
let fan_out ?pool body =
  let place = placement pool in
  let run jobs =
    match place with
    | Some p -> barrier p jobs
    | None -> List.iter (fun job -> ignore (job ())) jobs
  in
  body run (match place with Some p -> p.size | None -> 0);
  run_join_check ()

(* Record the failure with the smallest task index: first-by-index is
   stable across worker counts and chunkings, first-observed is not. *)
let record_failure slot i e bt =
  match !slot with
  | Some (j, _, _) when j <= i -> ()
  | _ -> slot := Some (i, e, bt)

let parallel_map ?pool ?chunk f l =
  let arr = Array.of_list l in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let out = Array.make n None in
    let first_exn = ref None in
    let m = Mutex.create () in
    let apply i =
      try out.(i) <- Some (f arr.(i))
      with e ->
        let bt = Printexc.get_backtrace () in
        Mutex.protect m (fun () -> record_failure first_exn i e bt)
    in
    fan_out ?pool (fun run workers ->
        let chunk =
          match chunk with
          | Some c -> max 1 c
          | None -> max 1 (n / ((workers + 1) * 4))
        in
        run
          (List.map
             (fun (lo, hi) () ->
               for i = lo to hi do
                 apply i
               done;
               false)
             (ranges ~n ~chunk)));
    (match !first_exn with
    | Some (index, exn, backtrace) ->
        raise (Task_failed { index; exn; backtrace })
    | None -> ());
    List.init n (fun i -> Option.get out.(i))
  end

(* --- supervised fan-out ---------------------------------------------------

   One job per task (tasks on this path are heavyweight: a full sample
   build), retried for up to [retries] extra attempts.  Each round is one
   pass through the barrier, which first replaces any worker domain lost
   to a crash.  Timeouts are cooperative: genuine
   compute in this simulated system cannot hang, so the only blocking
   primitive — the injected hang — sleeps in slices and honours the
   task's deadline by raising [Task_timeout], which cancels the task
   without abandoning the worker. *)

type failure = {
  f_index : int;
  f_attempts : int;
  f_error : string;
  f_backtrace : string;
}

exception Task_timeout of float

(* Cap on *real* seconds slept per simulated hang, so fault-heavy test
   runs stay fast while nominal durations still drive the timeout logic. *)
let hang_real_cap = 0.02

type 'b slot =
  | Pending
  | Done of 'b
  | Crashed of int (* attempts so far *)
  | Failed of failure

let supervised_map ?pool ?(retries = 2) ?timeout_s ?(task_key = string_of_int)
    f inputs =
  let arr = Array.of_list inputs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let slots = Array.make n Pending in
    let slot_mutex = Mutex.create () in
    let set i v =
      Mutex.lock slot_mutex;
      slots.(i) <- v;
      Mutex.unlock slot_mutex
    in
    (* Runs task [i] for the given attempt and stores the outcome.
       Returns [true] when a simulated crash must also kill the worker
       domain running it: the job's result, which only a worker's loop
       acts on. *)
    let run_one ~attempt i =
      let key = Printf.sprintf "%s#%d" (task_key i) attempt in
      try
        (* Hang before crash: an execution can stall and *then* take its
           worker down, which is also what keeps crashing executions on
           worker domains long enough for supervision to be observable. *)
        (match Vfault.Inject.pool_hang ~key with
         | Some dur -> (
             match timeout_s with
             | Some deadline when dur > deadline ->
                 (* The task would still be hung at its deadline: the
                    supervisor cancels it.  Sleep the (capped) deadline
                    to keep the wall-clock shape honest. *)
                 Unix.sleepf (Float.min deadline hang_real_cap);
                 raise (Task_timeout dur)
             | _ -> Unix.sleepf (Float.min dur hang_real_cap))
         | None -> ());
        if Vfault.Inject.pool_crash ~key then begin
          Atomic.incr crashes;
          set i (Crashed attempt);
          true
        end
        else begin
          set i (Done (f arr.(i)));
          false
        end
      with
        | Task_timeout dur ->
            Atomic.incr timeouts;
            set i
              (Failed
                 { f_index = i; f_attempts = attempt + 1;
                   f_error =
                     Printf.sprintf
                       "timed out after %gs (simulated hang of %gs)"
                       (Option.value ~default:0.0 timeout_s) dur;
                   f_backtrace = "" });
            false
        | Vfault.Inject.Injected_crash _ ->
            Atomic.incr crashes;
            set i (Crashed attempt);
            true
        | e ->
            let bt = Printexc.get_backtrace () in
            set i
              (Failed
                 { f_index = i; f_attempts = attempt + 1;
                   f_error = Printexc.to_string e; f_backtrace = bt });
            false
    in
    let pending () =
      let l = ref [] in
      Mutex.lock slot_mutex;
      for i = n - 1 downto 0 do
        match slots.(i) with
        | Pending -> l := (i, 0) :: !l
        | Crashed a -> l := (i, a + 1) :: !l
        | Failed fl -> l := (i, fl.f_attempts) :: !l
        | Done _ -> ()
      done;
      Mutex.unlock slot_mutex;
      !l
    in
    fan_out ?pool (fun run _ ->
        let rec rounds attempt =
          let tasks = pending () in
          if tasks <> [] && attempt <= retries then begin
            if attempt > 0 then List.iter (fun _ -> Atomic.incr retried) tasks;
            run (List.map (fun (i, attempt) () -> run_one ~attempt i) tasks);
            rounds (attempt + 1)
          end
        in
        rounds 0);
    Array.to_list
      (Array.mapi
         (fun i slot ->
           match slot with
           | Done v -> Ok v
           | Failed fl ->
               Atomic.incr failures;
               Error fl
           | Crashed a ->
               Atomic.incr failures;
               Error
                 { f_index = i; f_attempts = a + 1;
                   f_error = "worker domain crashed (injected)";
                   f_backtrace = "" }
           | Pending ->
               (* Unreachable: every round attempts all pending tasks. *)
               Atomic.incr failures;
               Error
                 { f_index = i; f_attempts = 0; f_error = "task never ran";
                   f_backtrace = "" })
         slots)
  end
