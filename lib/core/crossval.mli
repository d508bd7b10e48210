(** Cross-validation of fitted models. *)

(** Leave-one-out: each sample predicted by a model fitted on the rest.
    L2 speedup fits use the analytic hat-matrix identity
    [y_i - e_i / (1 - h_i)] from a single QR factorization (O(n·p²));
    NNLS and SVR refit [n] times on the shared domain pool.  Both paths
    agree to within 1e-9 (checked by the test suite). *)
val loocv :
  method_:Linmodel.fit_method -> features:Linmodel.feature_kind ->
  target:Linmodel.target -> Dataset.sample list -> float array
