(** Per-depth subscript tests for the nest-wide dependence graph: ZIV and
    strong-SIV dimensions are decided exactly, weak-SIV and MIV dimensions
    through a GCD integrality test plus Banerjee-style interval bounds
    evaluated under each direction hypothesis.  Trip counts stay symbolic
    in the problem size, so pruning a direction is sound at every n. *)

type direction = Lt | Eq | Gt  (** '<', '=', '>' — instance 1 vs instance 2 *)

(** Render a direction vector, outermost depth first, e.g. ["<="]. *)
val dirs_to_string : direction array -> string

(** Extended integers: the n-dependent end of a symbolic trip count is
    infinite. *)
type ebound = Ninf | Fin of int | Pinf

(** One loop of the nest in index-value space. *)
type axis = { ax_var : string; ax_step : int; ax_vlo : ebound; ax_vhi : ebound }

(** Feasible direction vectors between one instance of each affine
    reference (dims lists, outermost subscript order as written), with the
    exact per-depth iteration distance [t1 - t2] where the strong-SIV test
    pins it ([Some 0] wherever the direction is [Eq]).

    [None] means the pair is not analyzable (symbolic subscript parts
    differ); the caller must assume every direction.  [Some []] means the
    references are proven independent. *)
val directions :
  k:Vir.Kernel.t ->
  Vir.Instr.dim list ->
  Vir.Instr.dim list ->
  (direction array * int option array) list option
