(* Evaluation metrics for a set of speedup predictions: the paper reports
   correlation between estimated and measured speedup, false predictions,
   and the execution-time impact of acting on the predictions. *)

type eval = {
  pearson : float;
  pearson_ci : float * float;  (* 95% bootstrap interval *)
  spearman : float;
  rmse : float;
  confusion : Vstats.Confusion.t;
  exec_cycles : float;  (* total cycles when vectorizing iff predicted > 1 *)
  oracle_cycles : float;  (* vectorize iff actually beneficial *)
  scalar_cycles : float;  (* never vectorize *)
  always_cycles : float;  (* always vectorize *)
}

(* A predicted speedup above 1 means "vectorize". *)
let evaluate ~(predicted : float array) (samples : Dataset.sample list) =
  let measured = Dataset.measured_array samples in
  let arr = Array.of_list samples in
  if Array.length predicted <> Array.length arr then
    invalid_arg "Metrics.evaluate: prediction count mismatch";
  let confusion =
    Vstats.Confusion.of_speedups ~predicted ~measured ()
  in
  let exec_cycles = ref 0.0
  and oracle = ref 0.0
  and scal = ref 0.0
  and alw = ref 0.0 in
  Array.iteri
    (fun i (s : Dataset.sample) ->
      let chosen =
        if predicted.(i) > 1.0 then s.vector_total else s.scalar_total
      in
      exec_cycles := !exec_cycles +. chosen;
      oracle := !oracle +. Float.min s.vector_total s.scalar_total;
      scal := !scal +. s.scalar_total;
      alw := !alw +. s.vector_total)
    arr;
  {
    pearson = Vstats.Correlation.pearson predicted measured;
    pearson_ci =
      (if Array.length predicted >= 3 then
         Vstats.Bootstrap.pearson_ci ~iterations:400 predicted measured
       else (0.0, 0.0));
    spearman = Vstats.Correlation.spearman predicted measured;
    rmse = Vstats.Descriptive.rmse predicted measured;
    confusion;
    exec_cycles = !exec_cycles;
    oracle_cycles = !oracle;
    scalar_cycles = !scal;
    always_cycles = !alw;
  }
