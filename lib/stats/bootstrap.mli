(** Percentile bootstrap confidence intervals (deterministic). *)

(** The 95% interval of Pearson's r over [iterations] resamples (default
    1000). *)
val pearson_ci : ?iterations:int -> float array -> float array -> float * float
