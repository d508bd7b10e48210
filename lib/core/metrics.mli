(** Evaluation of a set of speedup predictions: the paper's correlation,
    false-prediction and execution-time metrics. *)

type eval = {
  pearson : float;
  pearson_ci : float * float;  (** 95% bootstrap interval *)
  spearman : float;
  rmse : float;
  confusion : Vstats.Confusion.t;
  exec_cycles : float;  (** total when vectorizing iff predicted > 1 *)
  oracle_cycles : float;  (** vectorize iff actually beneficial *)
  scalar_cycles : float;  (** never vectorize *)
  always_cycles : float;  (** always vectorize *)
}

val evaluate : predicted:float array -> Dataset.sample list -> eval
