(** Experiment samples: one per TSVC kernel the transform can vectorize. *)

type transform = Llv | Slp

val transform_to_string : transform -> string

type sample = {
  name : string;
  category : Tsvc.Category.t;
  kernel : Vir.Kernel.t;
  vk : Vvect.Vinstr.vkernel;
  vf : int;
  raw : float array;  (** scalar body instruction-class counts *)
  norm_raw : float array;
      (** counts after the [Vanalysis.Opt] normalization pipeline *)
  rated : float array;  (** block-composition features *)
  extended : float array;  (** rated + derived features (extension) *)
  absint : float array;  (** extended + abstract-interpretation columns *)
  opt : float array;
      (** absint features of the normalized body + ratio/hoist columns *)
  deps : float array;
      (** opt features + nest-wide dependence-graph and idiom columns *)
  cert : float array;
      (** deps features + certified-safe access fraction and guard-free
          flag ({!Vanalysis.Cert}) *)
  vraw : float array;  (** vector body counts (cost-target fits) *)
  exec_backend : string;  (** execution backend that ran the kernel *)
  exec_digest : string;
      (** fingerprint of the backend execution ({!Vmachine.Measure.execute}) *)
  measured : float;  (** noisy measured speedup: the ground truth *)
  scalar_cycles_iter : float;
  vector_cycles_block : float;
  scalar_total : float;
  vector_total : float;
  baseline : float;  (** baseline model's predicted speedup *)
}

val apply_transform :
  transform -> vf:int -> Vir.Kernel.t -> Vvect.Vinstr.vkernel option

(** Build samples for every entry the transform can vectorize at the
    machine's natural VF.  Entries are built on the shared domain pool
    through {!Vpar.Pool.supervised_map} (task failures, injected worker
    crashes and timeouts quarantine the sample instead of aborting the
    run) and memoized in a process-wide content-keyed cache (kernel
    content, the whole machine description, transform, n, noise_amp,
    seed, repeats, active fault plan), so experiments sharing a (machine, transform, config)
    combination pay for vectorization and machine-model measurement once.

    [?repeats] (default 1) measures the speedup k times under derived
    seeds, rejects repeats outside 3.5 normalized MADs of the median, and
    keeps the median of the survivors; [repeats = 1] is the historical
    single-shot behaviour.  Samples with no usable measurement are
    quarantined into the {!health} ledger, never silently dropped.
    A build task whose simulated hang exceeds 0.5 s is cancelled.

    [?backend] (default {!Vexec.Backend.default}) selects the execution
    engine that actually runs each kernel; the backend id is folded into
    the cache key, so switching backends never serves samples another
    backend built. *)
val build :
  ?noise_amp:float -> ?seed:int -> ?repeats:int ->
  ?backend:Vexec.Backend.t -> ?pool:Vpar.Pool.t ->
  machine:Vmachine.Descr.t -> transform:transform -> n:int ->
  Tsvc.Registry.entry list -> sample list

(** {2 Health ledger} *)

(** One sample that could not enter a dataset, and why. *)
type quarantine = {
  q_name : string;  (** kernel *)
  q_machine : string;
  q_transform : string;
  q_reason : string;
}

type health = {
  h_quarantined : quarantine list;  (** oldest first, deduplicated *)
  h_cache_corruptions : int;
      (** corrupted cache entries detected and rebuilt *)
  h_repeats_rejected : int;  (** repeat measurements discarded (MAD or
      non-finite) *)
}

(** The process-wide health ledger since the last {!health_reset}. *)
val health : unit -> health

val health_reset : unit -> unit

(** {2 Sample cache introspection} *)

type cache_stats = Vpar.Memo.stats = { hits : int; misses : int; entries : int }

(** Hit/miss counters since the last {!cache_clear}, plus the live entry
    count (one per cached (kernel, machine, transform, config) key,
    including negative entries for non-vectorizable kernels). *)
val cache_stats : unit -> cache_stats

(** Hit/miss counters of the execution memo since the last
    {!cache_clear}, plus its entry count.  A build that misses the sample
    cache looks its kernel's execution digest up under everything
    {!Vmachine.Measure.execute} reads (kernel content, n, seed, repeats,
    backend, active fault plan), so a miss is one execution. *)
val exec_stats : unit -> cache_stats

(** Drop every cached sample and memoized execution and reset the
    counters. *)
val cache_clear : unit -> unit

(** Disable or re-enable memoization (used to time cold baselines).
    Enabled by default; when disabled the sample cache and the execution
    memo are bypassed and the counters do not move. *)
val set_cache_enabled : bool -> unit

(** Which execution backend produced the cached samples currently live in
    the cache: [(backend, count)] sorted by backend name.  Entries with no
    execution (non-vectorizable, quarantined) are not counted. *)
val cache_backends : unit -> (string * int) list

val measured_array : sample list -> float array
val baseline_array : sample list -> float array
