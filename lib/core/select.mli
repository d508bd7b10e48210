(** Transformation selection with aligned cost models: choose among scalar,
    LLV (two widths) and SLP per kernel, under different predictors, and
    account the resulting execution time. *)

type candidate = {
  cd_label : string;
  cd_vk : Vvect.Vinstr.vkernel option;  (** [None] = stay scalar *)
  cd_cycles : float;
}

(** All applicable candidates for one kernel with measured cycle totals,
    including LLV-after-interchange when that is the only vectorizable
    order. *)
val candidates :
  noise_amp:float -> seed:int -> Vmachine.Descr.t -> n:int -> Vir.Kernel.t ->
  candidate list

(** Candidate speedup under a cost-targeted model.
    @raise Invalid_argument for speedup-targeted models. *)
val predict_candidate : Linmodel.t -> Vir.Kernel.t -> candidate -> float

type policy =
  | Always_scalar
  | Default_vectorize
  | By_baseline
  | By_cost_model of Linmodel.t
  | Oracle

val choose : policy -> Vir.Kernel.t -> candidate list -> candidate

type summary = {
  sm_policy : string;
  sm_total_cycles : float;
  sm_optimal_picks : int;
  sm_kernels : int;
}

val evaluate :
  ?noise_amp:float -> ?seed:int -> Vmachine.Descr.t -> n:int -> policy ->
  Tsvc.Registry.entry list -> summary
