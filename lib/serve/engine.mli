(** The serving engine: the request pipeline behind the daemon and the
    loadtest simulation, independent of any transport.

    A request flows parse -> decision (feature extraction + model
    prediction, or the baseline fallback) -> diagnostics (lint), under a
    cooperative {e virtual} deadline: stages charge nominal virtual costs
    (plus any injected [serve.slow] seconds), and when the budget runs
    out after the decision the response is partial — the decision without
    diagnostics — rather than late or lost.  Admission control (queue
    bound, per-client token buckets), per-stage circuit breakers and
    injected [serve.{drop,slow,reject}] faults all answer explicitly:
    every request gets exactly one response.

    Each engine memoizes what a request computes about its kernel, short
    of the prediction: the served feature vector, the lint counts at the
    request's vf and at the default VFs, the certificate summary and the
    baseline speedup, keyed by (registry kernel name, vf).  Lookups run
    inside the stages, after their fault draws, so drops, slowness,
    retries, breakers and the virtual stage costs are exactly those of an
    unmemoized engine; an analysis that raises is not memoized.  The
    [stats] reply reports each table's hits, misses and entries under
    [memo].
    Predictions are not memoized (the model can hot-reload).  The wire
    bounds the memo: 151 registry kernels × vf 1–64 keys per table, plus
    151 default-VF lint keys.  Filled at every key with a fitted [cert]
    model it measured 5.2 MB, and a baseline-only engine's 1.8 MB, lint
    table included; no eviction is needed. *)

type config = {
  features : Costmodel.Linmodel.feature_kind;  (** served feature schema *)
  machine : Vmachine.Descr.t;
  n : int;  (** problem size for analysis-dependent features *)
  queue_limit : int;  (** admission bound on queued requests *)
  deadline_s : float;  (** virtual seconds per request *)
  rate : float;  (** per-client tokens per virtual second; <= 0 = off *)
  burst : float;
  journal_path : string option;  (** serving-stats journal for crash-only restart *)
  model_path : string option;  (** initial model; [None] serves the baseline *)
}

(** neon-a57, cert features, n = 32000, queue 64, 20ms virtual deadline,
    200 tokens/s burst 50, no journal, no model (baseline).  Every engine
    opens a stage's breaker after 5 consecutive faults for 8 requests and,
    with a journal, checkpoints every 32 answered requests. *)
val default_config : config

(** Cumulative serving counters.  In sequential use every request is
    counted exactly once, so
    [received = answered + rejected_overload + rejected_rate +
     rejected_bad + deadline_errors + dropped + internal_errors].  The
    engine counts in place under its lock; {!stats} returns a copy. *)
type stats = private {
  mutable received : int;
  mutable answered : int;  (** ok responses, including degraded and partial *)
  mutable rejected_overload : int;  (** queue full or injected admission reject *)
  mutable rejected_rate : int;
  mutable rejected_bad : int;  (** malformed requests, unknown kernels/machines *)
  mutable deadline_errors : int;  (** budget exhausted before a decision *)
  mutable dropped : int;  (** all attempts lost; answered with [E_dropped] *)
  mutable partials : int;  (** answered without diagnostics (deadline) *)
  mutable degraded_baseline : int;  (** fitted model unusable; baseline answered *)
  mutable degraded_lint_skipped : int;  (** analysis breaker open; lint skipped *)
  mutable internal_errors : int;
}

type t

(** Build an engine.  When [config.journal_path] names an existing
    serving journal its counters are replayed (crash-only restart); when
    [config.model_path] is set the model is loaded and validated, and a
    rejected model leaves the engine serving the baseline (the error is
    returned by {!startup_error}). *)
val create : config -> t

val config : t -> config
val slot : t -> Modelslot.t

(** [Some message] when the configured initial model was rejected. *)
val startup_error : t -> string option

(** Whether {!create} replayed counters from an existing journal. *)
val resumed : t -> bool

val stats : t -> stats

(** Handle one request.  [now] is the virtual arrival time (drives token
    buckets and the deadline); [queue_depth] is the caller's current
    queue occupancy, checked against [queue_limit].  Returns the response
    and the virtual service seconds consumed.  Never raises. *)
val handle :
  t -> ?now:float -> ?queue_depth:int -> Proto.request -> Proto.response * float

(** Decode, handle and encode one wire line.  The [bool] is true when the
    line was a shutdown request (the transport decides what to do with
    it).  Never raises. *)
val handle_line :
  t -> ?now:float -> ?queue_depth:int -> client:string -> string ->
  string * bool

(** Persist the serving counters to the journal now (no-op without a
    journal).  Called by transports on clean shutdown; crash-only
    restarts rely on the periodic checkpoints instead. *)
val checkpoint : t -> unit
