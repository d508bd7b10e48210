(** Analytic steady-state cycle estimator (llvm-mca style): the per-iteration
    or per-block cost is the max of resource, frontend, memory and
    loop-carried-recurrence bounds. *)

type bounds = {
  resource : float;
  frontend : float;
  memory : float;
  recurrence : float;
}

(** [cycles] is per scalar iteration for {!scalar_estimate} and per vector
    block for {!vector_estimate}. *)
type estimate = { cycles : float; bounds : bounds }

(** Longest def-use latency path through one body execution. *)
val critical_path : op_lat:(int -> float) -> Vir.Instr.t array -> float

val scalar_estimate : Descr.t -> n:int -> Vir.Kernel.t -> estimate
val vector_estimate : Descr.t -> n:int -> Vvect.Vinstr.vkernel -> estimate
