(** Per-kernel legality summary over the (transform x VF) space, the
    oracle the vectorizers consult and the autotuner enumerates.

    Innermost verdicts come from [Dependence] (unchanged, golden-locked);
    interchange uses the [Depgraph] direction vectors; reduction admission
    uses the [Idiom] tags. *)

open Vir

(** Loop-level widening legality at [vf] (LLV checks its full vf*ic span). *)
val llv_ok : Kernel.t -> vf:int -> bool

(** SLP packing legality at [vf]: dependence legality plus order-insensitive
    reduction idioms. *)
val slp_ok : Kernel.t -> vf:int -> bool

type ix_verdict =
  | Ix_legal
  | Ix_illegal of string
      (** the array whose (<,>) direction vector would reverse into (>,<) *)
  | Ix_inapplicable of string
      (** not a two-level nest, or a dependence direction is unknown *)

val ix_verdict_to_string : ix_verdict -> string
val interchange_verdict : Kernel.t -> ix_verdict

type t = {
  l_kernel : string;
  l_vf_limit : Dependence.vf_limit;
  l_llv : (int * bool) list;
  l_slp : (int * bool) list;
  l_unroll : (int * bool) list;
  l_interchange : ix_verdict;
  l_idioms : Idiom.t list;
  l_assumed : bool;
}

val summarize : Kernel.t -> t

(** The VFs a column marks legal. *)
val legal_vfs : (int * bool) list -> int list

val pp : Format.formatter -> t -> unit
