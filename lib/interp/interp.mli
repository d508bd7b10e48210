(** Reference scalar interpreter for kernels. *)

type value = V_int of int | V_float of float | V_bool of bool

val to_float : value -> float
val to_int : value -> int
val to_bool : value -> bool

val float_bin : Vir.Op.binop -> float -> float -> float
val int_bin : Vir.Op.binop -> int -> int -> int
val float_una : Vir.Op.unop -> float -> float
val int_una : Vir.Op.unop -> int -> int
val float_cmp : Vir.Op.cmpop -> float -> float -> bool

(** Fold one value into a reduction accumulator / its neutral element. *)
val red_combine : Vir.Op.redop -> float -> float -> float

val red_neutral : Vir.Op.redop -> float

(** Row-major flat element index of an affine access. *)
val flat_index : Env.t -> (string * int) list -> Vir.Instr.dim list -> int

(** Execute the body once for the given bindings; [accs] holds the reduction
    accumulators (parallel to [k.reductions]) and is updated in place. *)
val exec_iteration :
  Env.t -> Vir.Kernel.t -> idx:(string * int) list -> accs:float array -> unit

type result = { env : Env.t; reductions : (string * float) list }

(** Run the whole nest in an existing environment; returns reduction values.
    [observe] is called with (position, value) for every register defined —
    the hook the abstract-interpretation soundness tests attach to. *)
val run_in :
  ?observe:(int -> value -> unit) -> Env.t -> Vir.Kernel.t -> (string * float) list

(** Allocate a fresh environment (the default seed) and run. *)
val run : n:int -> Vir.Kernel.t -> result
