(** The baseline cost model in LLVM-TTI style: static per-instruction costs
    with no notion of bandwidth, latency chains or issue width. *)

val scalar_class_cost : Feature.cls -> float
val vector_class_cost : vf:int -> Feature.cls -> float

(** Cost of one scalar iteration, in abstract units. *)
val scalar_cost : Vir.Kernel.t -> float

(** The vectorizer's benefit estimate: scalar cost of vf iterations over the
    vector block cost. *)
val predicted_speedup : Vvect.Vinstr.vkernel -> float
