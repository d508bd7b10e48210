(** Effect & ownership analysis.

    Per-kernel may-read/may-write summaries per array — the effect
    license the runtime's buffer-ownership discipline consumes
    ([Vexec.Effects]) — refined with affine flat-index regions from the
    abstract interpreter and the relational domain's parametric
    in-bounds verdicts.  {!Crosscheck}'s [Effects] obligation proves the
    summary stable under every LLV/SLP/unroll x VF transform. *)

open Vir

type region = {
  r_array : string;
  r_write : bool;
  r_range : Interval.t;  (** flat-index interval at the analysis size *)
}

type summary = {
  e_kernel : Kernel.t;
  e_n : int;  (** problem size the regions were computed at *)
  e_license : Vexec.Effects.t;
  e_regions : region list;  (** sorted by (array, write) *)
  e_rel_safe : int;  (** accesses proved in-bounds parametrically *)
  e_rel_total : int;
}

(** One region per (array, direction) the kernel accesses at size [n],
    sorted by (array, write). *)
val regions : n:int -> Kernel.t -> region list

val analyze : ?n:int -> Kernel.t -> summary

(** Registry-order parallel map of {!analyze}. *)
val analyze_kernels : ?n:int -> Kernel.t list -> summary list

val ownership : summary -> string -> Vinterp.Env.ownership
val region : summary -> array:string -> write:bool -> region option

(** Effect summary of a vectorized kernel's wide body (the scalar
    epilogue's effects are the source summary by construction). *)
val vkernel_effects : Vvect.Vinstr.vkernel -> Vexec.Effects.t

(** {2 Rendering} (byte-stable across worker counts) *)

val summary_to_json : summary -> Vjson.t
val print_summary : out_channel -> summary -> unit
