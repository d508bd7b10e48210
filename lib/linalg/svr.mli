(** Linear epsilon-insensitive SVR by dual coordinate descent. *)

type params = { c : float; epsilon : float; max_epochs : int; tol : float }

val default_params : params

(** Fit weights [w] minimizing the eps-insensitive loss of [x w] against [y].
    Deterministic across runs. *)
val fit : ?params:params -> Mat.t -> float array -> float array
