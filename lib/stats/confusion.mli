(** Binary benefit classification: positive = vectorization beneficial. *)

type t = { tp : int; tn : int; fp : int; fn : int }

(** Classify speedups against a threshold (default 1.0). *)
val of_speedups :
  ?threshold:float -> predicted:float array -> measured:float array -> unit -> t

val total : t -> int
val accuracy : t -> float
