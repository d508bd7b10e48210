(** Explicit SSA view of a kernel: checks the SSA-by-position invariant of
    the straight-line body, builds the structured loop-nest CFG, and
    computes its dominator tree (Cooper–Harvey–Kennedy over reverse
    postorder).  The optimizer phrases redundancy-elimination legality as
    dominance queries against this structure. *)

open Vir

type node = Entry | Header of int  (** loop index, outermost first *) | Body | Latch of int | Exit

exception Not_ssa of string

type t = {
  kernel : Kernel.t;
  body : Instr.t array;
  nodes : node array;
  succ : int list array;
  pred : int list array;
  rpo : int array;  (** node indices in reverse postorder *)
  idom : int array;  (** immediate dominator per node; entry maps to itself *)
  entry : int;
  block : int;  (** index of the [Body] node *)
}

(** Raises [Not_ssa] when a body or reduction operand reads a register that
    is undefined, defined by a store, or defined later than the use. *)
val check : Kernel.t -> unit

(** Checks SSA form, then builds CFG + dominator tree. *)
val of_kernel : Kernel.t -> t

(** [dominates t a b]: every path from entry to node [b] passes node [a]. *)
val dominates : t -> int -> int -> bool

(** Depth of a node in the dominator tree (entry = 0). *)
val dom_depth : t -> int -> int

(** Dominance between body positions (both live in the single [Body]
    block): true iff [def] textually precedes [use] and both are in
    range. *)
val def_dominates_use : t -> def:int -> use:int -> bool
