(** Abstract interpretation over the scalar kernel body: interval ranges for
    registers and subscripts (fixpoint with widening), linear congruences
    for memory-access alignment per vector factor, and trip-count facts.
    Sound w.r.t. [Vinterp.Interp] in the default [Vinterp.Env] (checked by
    qcheck containment properties over random synthesized kernels). *)

type trip_count =
  | Tc_const of int
      (** provably this many iterations at every problem size *)
  | Tc_linear of int  (** n-dependent; the value at the analysis size *)

val trip_count : n:int -> Vir.Kernel.loop -> trip_count

type access_class =
  | Invariant
  | Aligned  (** unit stride, provably vf-aligned at every block start *)
  | Unaligned  (** unit stride, alignment unprovable or refuted *)
  | Strided of int
  | Row
  | Gather

(** Congruence of one access's flat index at the vector-block start points
    (the innermost variable advances vf*step per block; parameters are
    unknown integers, so alignment never depends on runtime values). *)
val flat_congr :
  ?vf:int -> n:int -> Vir.Kernel.t -> Vir.Instr.dim list -> Congr.t

(** Classify one access; without [vf] no alignment is claimed and unit
    strides classify as [Unaligned]. *)
val classify_access :
  ?vf:int -> n:int -> Vir.Kernel.t -> Vir.Instr.addr -> access_class

type access_info = {
  ai_pos : int;
  ai_arr : string;
  ai_store : bool;
  ai_class : access_class;
  ai_congr : Congr.t;
  ai_range : Interval.t;  (** flat-index range over all iterations *)
}

type summary = {
  s_kernel : Vir.Kernel.t;
  s_n : int;
  s_vf : int option;
  s_regs : Interval.t array;
  s_accesses : access_info list;
  s_trips : (string * trip_count) list;
  s_widened : int list;
      (** store positions whose array interval required widening: loop-
          carried recurrences whose values the intervals cannot bound *)
  s_zero_trip : bool;
  s_rounds : int;
}

(** Problem size the lint passes analyze at. *)
val default_n : int

val analyze : ?vf:int -> n:int -> Vir.Kernel.t -> summary

(** Fraction of the body's memory accesses provably aligned at [vf]. *)
val aligned_fraction : n:int -> vf:int -> Vir.Kernel.t -> float

(** 1.0 when the innermost trip count is provably size-independent. *)
val const_trip_flag : Vir.Kernel.t -> float

val print_summary : summary -> unit
val summary_to_json : summary -> Vjson.t
