(** A fixed-size pool of worker domains with deterministic fork-join
    fan-out: results are returned in submission order regardless of which
    worker computed them.

    Every fan-out ({!parallel_map}'s index chunks, each retry round of
    {!supervised_map}) makes one placement decision and passes one
    barrier.  It runs inline in the calling domain in sequential mode,
    from inside a worker (so nested maps of pure functions cannot deadlock
    the fixed pool), on the default pool of a single-core host, and on a
    degraded pool.  Otherwise the barrier replaces workers lost to
    (injected) crashes, enqueues the jobs, has the submitting domain help
    drain the queue (a pool of [size] workers uses [size + 1] cores) and
    waits for the last job.  The join hook runs once after each fan-out.

    The pool is supervised: task failures are isolated with their index
    and backtrace, and {!supervised_map} adds bounded retry and
    cooperative per-task timeouts on top. *)

type t

(** Raised by the map entry points when one or more task applications
    raised: the failure with the {e smallest} task index (stable across
    worker counts and chunkings), with the original exception and its
    captured backtrace. *)
exception Task_failed of { index : int; exn : exn; backtrace : string }

(** [create ~size] spawns [size] worker domains ([size >= 1]).  If the
    runtime refuses to spawn any domain the pool degrades to inline
    execution instead of failing. *)
val create : size:int -> t

val size : t -> int

(** Worker domains currently serving the queue (crashed workers are
    replaced lazily, before the next fan-out). *)
val alive_workers : t -> int

(** Stop the workers and join them.  Pending jobs are dropped; only call
    once every submitted map has returned. *)
val shutdown : t -> unit

(** The process-wide shared pool, created on first use with
    [default_size ()] workers. *)
val default : unit -> t

(** Worker count for the default pool: [$VECMODEL_JOBS] when set to a
    positive integer, else [Domain.recommended_domain_count () - 1]
    (at least 1).  A malformed or non-positive [$VECMODEL_JOBS] is
    rejected with a one-line warning on stderr (once per process) and
    ignored. *)
val default_size : unit -> int

(** Validate a [$VECMODEL_JOBS] value: [Ok n] for a positive integer,
    [Error reason] otherwise. *)
val parse_jobs : string -> (int, string) result

(** Force every parallel entry point to run sequentially in the calling
    domain (used to time serial baselines).  Off by default. *)
val set_sequential : bool -> unit

val sequential : unit -> bool

(** Install a hook the submitting domain runs after every fan-out barrier
    (each non-empty {!parallel_map} or {!supervised_map} call),
    before per-task failures are re-raised.  Used by the shadow-state
    sanitizer to verify shared master buffers at join points; exceptions
    propagate to the submitter.  Must be cheap when idle and callable
    from any domain. *)
val set_join_check : (unit -> unit) -> unit

(** [parallel_map f l] = [List.map f l] for pure [f], computed on the pool
    ([?pool] defaults to the shared pool) in chunks of [?chunk] elements
    (default: a multiple of the pool size).  If any application raises,
    {!Task_failed} carrying the smallest failing index, the original
    exception and its backtrace is raised after all chunks finish.

    On a single-core host ([Domain.recommended_domain_count () < 2] and no
    [VECMODEL_JOBS] override) calls without an explicit [?pool] run inline
    in the calling domain: a worker domain would add cross-domain GC
    synchronisation without adding parallelism. *)
val parallel_map : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list

(** {2 Supervised fan-out} *)

(** Why a task ended without a result after its retry budget. *)
type failure = {
  f_index : int;  (** task index in the input list *)
  f_attempts : int;  (** executions consumed, including retries *)
  f_error : string;  (** printed exception, timeout or crash reason *)
  f_backtrace : string;  (** backtrace of the last failure, possibly [""] *)
}

(** [supervised_map f l] maps [f] over [l] on the pool with per-task
    fault isolation: each task yields [Ok (f x)] or, after [?retries]
    (default 2) additional attempts, [Error failure] — in input order,
    never an exception from [f].

    Failed tasks are retried in rounds; between rounds the submitter
    replaces worker domains lost to injected crashes.  [?timeout_s]
    cancels a task whose simulated hang exceeds it (cooperative: real
    compute in this model cannot block).  [?task_key] names tasks for
    fault-plan decisions (default: the index as a string) — pass a
    content-derived key to keep injection byte-identical across runs
    with different worker counts and input orders. *)
val supervised_map :
  ?pool:t ->
  ?retries:int ->
  ?timeout_s:float ->
  ?task_key:(int -> string) ->
  ('a -> 'b) ->
  'a list ->
  ('b, failure) result list

(** {2 Supervision statistics (process-wide)} *)

type stats = {
  st_crashes : int;  (** injected worker-domain crashes observed *)
  st_respawned : int;  (** replacement worker domains spawned *)
  st_timeouts : int;  (** tasks cancelled at their deadline *)
  st_retries : int;  (** task re-executions after a failure *)
  st_failures : int;  (** tasks that exhausted their retry budget *)
  st_degraded : int;
      (** fan-outs run inline because their pool could spawn no worker *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
