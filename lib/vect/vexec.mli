(** Executable semantics for vectorized kernels: each wide instruction
    processes all lanes before the next instruction runs, with a scalar
    epilogue for leftover iterations. *)

type vval = Vec of Vinterp.Interp.value array | Sca of Vinterp.Interp.value

(** Run in an existing environment; returns final reduction values. *)
val run_in : Vinterp.Env.t -> Vinstr.vkernel -> (string * float) list

(** Allocate a fresh (deterministic) environment and run. *)
val run : n:int -> Vinstr.vkernel -> Vinterp.Interp.result
