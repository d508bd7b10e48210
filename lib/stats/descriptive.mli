(** Summary statistics. *)

val mean : float array -> float
val variance : float array -> float

(** Geometric mean; inputs must be positive. *)
val geomean : float array -> float

val rmse : float array -> float array -> float
val minimum : float array -> float
val maximum : float array -> float
val median : float array -> float
