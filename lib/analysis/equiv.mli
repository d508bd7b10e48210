(** Translation validation: per-iteration-group memory-access multisets and
    reduction sets of a transformed kernel must match the scalar original.

    Loads tolerate the two legitimate deviations (invariant-load collapse,
    demand-driven drops of dead code); stores and reductions must match
    exactly. *)

open Vir

(** Memory-access multiset comparison for a vectorized kernel (one vector
    iteration vs [vf] scalar iterations). *)
val memory_diags : Vvect.Vinstr.vkernel -> Diag.t list

(** Reduction-set preservation for a vectorized kernel. *)
val reduction_diags : Vvect.Vinstr.vkernel -> Diag.t list

(** Both checks. *)
val vkernel_diags : Vvect.Vinstr.vkernel -> Diag.t list

(** Exact multiset/reduction/step comparison of an unrolled kernel against
    [uf] iterations of the original. *)
val unrolled_diags : orig:Kernel.t -> uf:int -> Kernel.t -> Diag.t list

(** Exact float equality with NaN equal to NaN (the comparison the semantic
    check uses: the optimizer never reassociates, so values match bitwise
    up to [=]'s 0/-0 identification). *)
val float_eq : float -> float -> bool

(** Problem sizes [semantic_diags] interprets at. *)
val semantic_sizes : int list

(** Run both kernels in the deterministic default environment and compare
    every array element and reduction value; an [Error] diagnostic per
    first mismatch.  A kernel that traps in the original form is skipped
    (no reference behaviour); a transform that *introduces* a trap is an
    error.  Runs execute on [Vexec.Backend.default ()]; all backends share
    reference semantics. *)
val semantic_diags : pass:string -> orig:Kernel.t -> Kernel.t -> Diag.t list
