(** Feature extraction: instruction-class counts of a loop body, with memory
    operations split by access pattern, plus the rated ("block composition")
    variant that exposes arithmetic intensity. *)

type cls =
  | F_int_alu
  | F_int_mul
  | F_int_div
  | F_fp_add
  | F_fp_mul
  | F_fp_fma
  | F_fp_div
  | F_fp_sqrt
  | F_cmp
  | F_select
  | F_cast
  | F_load_unit
  | F_load_inv
  | F_load_strided
  | F_load_gather
  | F_store_unit
  | F_store_strided
  | F_store_scatter
  | F_shuffle
  | F_reduction

val all : cls list

(** Number of feature classes. *)
val dim : int

(** Index of a class within a feature vector. *)
val index : cls -> int

val names : string list

(** Raw instruction-class counts of the scalar loop body. *)
val counts : Vir.Kernel.t -> float array

(** Vector-body counts (cost-targeted fits): one wide op counts 1, a
    scalarized group counts its parts. *)
val vcounts : Vvect.Vinstr.vkernel -> float array

val total : float array -> float

(** Normalize counts to fractions of the block. *)
val rate : float array -> float array

val rated : Vir.Kernel.t -> float array

(** Extended feature set: rated features plus arithmetic intensity, body
    size and memory-recurrence strength (1/distance). *)
val extended_names : string list

val extended : Vir.Kernel.t -> float array

(** Absint feature set: extended features plus the provably-aligned fraction
    of memory accesses at [vf] and a provable-constant-trip-count flag, both
    supplied by [Vanalysis.Absint]. *)
val absint_names : string list

val absint : n:int -> vf:int -> Vir.Kernel.t -> float array

(** Opt feature set: absint features of the [Vanalysis.Opt]-normalized body,
    plus the normalized/source count ratio and the loop-invariant (hoisted)
    fraction of the normalized body. *)
val opt_names : string list

val opt : n:int -> vf:int -> Vir.Kernel.t -> float array

(** Deps feature set: opt features plus nest-wide dependence-graph columns
    (tightest carried distance, carried-edge counts split outer/innermost)
    and recognized-idiom flags from [Vdeps]. *)
val deps_names : string list

val deps : n:int -> vf:int -> Vir.Kernel.t -> float array

(** Cert feature set: deps features plus the certified-safe access fraction
    and the guard-free flag from [Vanalysis.Cert] (relational
    bounds proofs, parametric in n and the runtime parameters). *)
val cert_names : string list

val cert : n:int -> vf:int -> Vir.Kernel.t -> float array
val pp : Format.formatter -> float array -> unit

(** One kernel's features, each computed at most once.  The kinds form two
    prefix chains, [rated ⊂ extended ⊂ absint] over the source body and
    [opt ⊂ deps ⊂ cert], where [opt] starts from [absint] over the
    [Vanalysis.Opt]-normalized body.  Forcing a field forces only its
    prefix, and its value equals the standalone function's: [(analyze ~n
    ~vf k).cert] is [cert ~n ~vf k].  The fields are plain [Lazy.t]: force
    them on the domain that called {!analyze}. *)
type analysis = {
  raw : float array Lazy.t;  (** [counts] of the source body *)
  norm_raw : float array Lazy.t;  (** [counts] of the normalized body *)
  rated : float array Lazy.t;
  extended : float array Lazy.t;
  absint : float array Lazy.t;
  opt : float array Lazy.t;
  deps : float array Lazy.t;
  cert : float array Lazy.t;
}

val analyze : n:int -> vf:int -> Vir.Kernel.t -> analysis
