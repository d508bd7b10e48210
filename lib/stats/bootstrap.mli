(** Percentile bootstrap confidence intervals (deterministic). *)

val pearson_ci :
  ?iterations:int -> ?seed:int -> ?alpha:float -> float array -> float array ->
  float * float
