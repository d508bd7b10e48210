(** The refined linear cost models: fitted over instruction-class features
    with L2, NNLS, SVR or robust Huber-IRLS, targeting either the speedup
    directly or block costs shared between scalar and vector code. *)

(** [Huber] is iteratively reweighted least squares under the Huber loss
    (k = 1.345, scale re-estimated as 1.4826 * MAD each iteration): it
    matches L2 on clean data and down-weights heavy-tailed measurement
    outliers instead of letting them steer the fit. *)
type fit_method = L2 | Nnls | Svr | Huber

val fit_method_to_string : fit_method -> string

type feature_kind = Raw | Rated | Extended | Absint | Opt | Deps | Cert

val feature_kind_to_string : feature_kind -> string

type target = Speedup | Cost

val target_to_string : target -> string

(** Column names of a feature kind, in weight order. *)
val names_of_kind : feature_kind -> string list

(** Column arity of a feature kind. *)
val dim_of : feature_kind -> int

type t = {
  weights : float array;
  method_ : fit_method;
  features : feature_kind;
  target : target;
}

(** The feature vector of a sample under a feature kind. *)
val features_of : feature_kind -> Dataset.sample -> float array

(** Fit a model on a sample set.  Cost-target fits use raw counts and two
    rows per kernel (scalar block at vf iterations, vector block). *)
val fit :
  method_:fit_method -> features:feature_kind -> target:target ->
  Dataset.sample list -> t

(** Predicted speedup of one sample under the model. *)
val predict : t -> Dataset.sample -> float

val predict_all : t -> Dataset.sample list -> float array

(** A loaded model whose feature kind or column arity disagrees with the
    configured feature set.  The serving tier must reject such a model at
    reload time — loading it would mispredict silently. *)
type mismatch = {
  mm_expected : feature_kind;
  mm_expected_dim : int;
  mm_got : feature_kind;
  mm_got_dim : int;
}

val mismatch_to_string : mismatch -> string

(** Check a model against the configured feature set: kind must match and
    the weight vector must have exactly [dim_of features] columns. *)
val compat : features:feature_kind -> t -> (unit, mismatch) result

(** Predict from an already-extracted feature vector (the serving hot
    path).  Raises [Invalid_argument] on a cost-target model or an arity
    mismatch — call {!compat} first. *)
val predict_vec : t -> float array -> float

(** Textual serialization (one key/value per line, versioned header). *)
val to_string : t -> string

val of_string : string -> (t, string) result

(** Atomic (temp file + rename): a crash mid-save never leaves a
    truncated model file. *)
val save : t -> string -> unit

(** [Error] when the file cannot be read or parsed. *)
val load : string -> (t, string) result
