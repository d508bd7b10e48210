(** Drivers for every table and figure of the paper plus this repo's
    extensions and ablations, and the registry that lists them.  Ids follow
    DESIGN.md: F1..F8 are the slides' figures and T1/T2 its tables; F9..F13
    add analysis features and A1..A10 are this repo's ablations, extensions
    and validations.  The registry runs every driver at [default_config];
    the drivers a test also runs at a smaller [n] take an optional
    [config]. *)

type config = { n : int; noise_amp : float; seed : int }

val default_config : config

(** Build the sample set for a machine/transform pair. *)
val samples :
  ?config:config -> machine:Vmachine.Descr.t -> transform:Dataset.transform ->
  unit -> Dataset.sample list

(** Counters for the LOOCV prediction cache, [Dataset.cache_stats]-shaped. *)
val loocv_cache_stats : unit -> Dataset.cache_stats

(** Drop every memoized prediction vector and reset the counters. *)
val loocv_cache_clear : unit -> unit

(** F1: state of the art, baseline model on ARM. *)
val f1 : ?config:config -> unit -> Report.result

(** F2: fitted for speedup on ARM (L2, NNLS over raw counts). *)
val f2 : ?config:config -> unit -> Report.result

(** F3: rated instruction-count features on ARM. *)
val f3 : ?config:config -> unit -> Report.result

(** F4: LOOCV of the NNLS fit on ARM. *)
val f4 : ?config:config -> unit -> Report.result

(** F5: LOOCV of the L2 fit on ARM. *)
val f5 : unit -> Report.result

(** F6: state of the art on x86 (SLP after unrolling, AVX2). *)
val f6 : unit -> Report.result

(** F7: fitted for cost on x86 (L2, NNLS, SVR). *)
val f7 : unit -> Report.result

(** F8: fitted for speedup on x86 (L2, NNLS, SVR). *)
val f8 : ?config:config -> unit -> Report.result

(** F9: extended features with vs without the abstract-interpretation
    columns (aligned-access fraction, provable trip count); the note
    reports the correlation delta. *)
val f9 : unit -> Report.result

(** F10: fitting on [Vanalysis.Opt]-normalized instruction counts vs raw
    source-level counts (same measurements); the note reports the
    correlation delta, and a third row exercises the [opt] feature kind. *)
val f10 : unit -> Report.result

(** F11 (robustness): contaminate 0–20% of the measured speedups with
    heavy-tailed two-sided spikes, fit L2 and Huber-IRLS on the
    contaminated data and score both against the clean measurements; the
    notes report the per-rate correlation and false-prediction gap. *)
val f11 : unit -> Report.result

(** F12 (dependence features): fit with and without the nest-wide
    dependence-graph columns (tightest carried distance, carried counts
    per depth, idiom flags); the notes report the correlation delta and
    the legality oracle's precision/recall against the validator. *)
val f12 : unit -> Report.result

(** F13 (safety certificates): fit with and without the static
    safety-certificate columns (certified-safe access fraction, guard-free
    flag from the relational bounds prover); the notes report the
    correlation delta and the registry certification census against the
    bind-time interval baseline. *)
val f13 : unit -> Report.result

type t1_row = {
  t1_transform : string;
  t1_baseline : float;
  t1_refined : float;
  t1_measured : float;
}

type t1_result = { t1_kernel : string; t1_rows : t1_row list }

(** T1: LLV vs SLP on the kernel where they disagree the most. *)
val t1 : ?config:config -> unit -> t1_result

(** T2: summary, baseline vs refined model on ARM. *)
val t2 : unit -> Report.result

(** A1 (ablation): which features carry the signal. *)
val a1 : ?config:config -> unit -> Report.result

(** A2 (ablation): 128-bit vs 256-bit ARM machine. *)
val a2 : unit -> Report.result * Report.result

(** A3 (ablation): out-of-order big core vs in-order little core. *)
val a3 : ?config:config -> unit -> Report.result * Report.result

(** A4 (extension): extended feature set, evaluated out-of-sample. *)
val a4 : ?config:config -> unit -> Report.result

(** A5 (extension): f64/i32 typed-variant coverage. *)
val a5 : ?config:config -> unit -> Report.result

type a6_row = {
  a6_name : string;
  a6_analytic : string;
  a6_simulated : string;
  a6_bytes_per_elem : float;
  a6_agrees : bool;
}

type a6_result = {
  a6_machine : string;
  a6_total : int;
  a6_agreeing : int;
  a6_rows : a6_row list;
}

(** A6 (validation): analytic memory level vs trace-driven cache simulation
    over the whole suite. *)
val a6 : unit -> a6_result

type a7_result = { a7_machine : string; a7_rows : Select.summary list }

(** A7 (extension): per-kernel transformation selection (scalar / LLV / SLP)
    under different predictors, generalizing T1. *)
val a7 : ?config:config -> unit -> a7_result

(** A8 (extension): out-of-distribution generalization from TSVC to
    application kernels (stencils, linear algebra, imaging). *)
val a8 : ?config:config -> unit -> Report.result

type a9_row = {
  a9_ic : int;
  a9_geo_all : float;
  a9_geo_red : float;
  a9_kernels : int;
}

type a9_result = { a9_machine : string; a9_rows : a9_row list }

(** A9 (extension): interleaving (multiple accumulators) — the knob the
    paper's setup disables — measured across the suite. *)
val a9 : unit -> a9_result

(** A10 (ablation): feature extraction before vs after IR cleanup
    (constant folding, CSE, DCE). *)
val a10 : unit -> Report.result

(** {1 The registry} *)

(** What an experiment prints: one or more summary tables, or one of the
    four results with a layout of their own. *)
type output =
  | Tables of Report.result list
  | T1 of t1_result
  | A6 of a6_result
  | A7 of a7_result
  | A9 of a9_result

type entry = { id : string; run : unit -> output }

(** Every experiment, in report order: f1..f13, t1, t2, a1..a10.  Ids are
    lowercase. *)
val registry : entry list

(** The entry with this id, ignoring case. *)
val find : string -> entry option

(** The one text renderer of an experiment's output, to stdout.  [Tables]
    print through {!Report.print}; T1, A6, A7 and A9 print a titled table in
    the same style. *)
val print : output -> unit
