(** Static safety certificates: per-kernel, per-access bounds verdicts from
    the relational domain ({!Rel}), overlaid with witness-backed
    refutations from {!Vir.Bounds}.  A [Vsafe] verdict holds for every
    problem size n >= 4 and every parameter assignment inside the
    environment contracts.  Certificates are analysis output only:
    execution picks the closure tier's body on every bind from its own
    interval proof ({!Vexec.Closure.affine_safe}), and {!gate} holds every
    guard-free certificate to that proof. *)

type verdict = Vsafe | Vunsafe | Vunknown

val verdict_to_string : verdict -> string

type align = Al_aligned | Al_misaligned of int | Al_unknown

val align_to_string : align -> string

type access_cert = {
  ac_id : int;  (** access id (memory-instruction order, = the numbering of
                    [Vexec.Program.lower]) *)
  ac_pos : int;  (** body position *)
  ac_array : string;
  ac_store : bool;
  ac_indirect : bool;
  ac_verdict : verdict;
  ac_reason : string;
      (** proving constraint for [Vsafe], concrete witness for [Vunsafe],
          cause for [Vunknown] *)
  ac_align : align;  (** congruence alignment at the certificate's vf;
                         informational (lint layer) *)
}

type t = {
  ct_kernel : string;
  ct_vf : int;
  ct_accesses : access_cert array;
  ct_guard_free : bool;
      (** every affine access proven: the closure tier's unchecked body is
          safe at every size (indirect accesses keep their guards either
          way) *)
  ct_safe : int;
  ct_unsafe : int;
}

val default_vf : int

val certify : ?vf:int -> Vir.Kernel.t -> t
val safe_frac : t -> float

val bind_time_guard_free : Vir.Kernel.t -> int
(** Baseline: accesses proven by the per-bind interval check alone for
    the default environment at size 1024 — all-or-nothing per kernel and
    affine-only. *)

val to_json : t -> Vjson.t
(** Deterministic JSON (stable field order, sorted by access id);
    byte-identical across worker counts. *)

val certify_batch : ?vf:int -> Vir.Kernel.t list -> (Vir.Kernel.t * t) list
(** Certify on the shared pool; results in input order. *)

type gate = {
  g_kernels : int;
  g_accesses : int;
  g_safe : int;
  g_unsafe : int;
  g_guard_free : int;
  g_bind_time : int;
  g_failures : string list;
}

val gate : (Vir.Kernel.t * t) list -> gate
(** The soundness gate: the bind-time interval proof
    ({!Vexec.Closure.affine_safe}) must hold for every guard-free kernel at
    n = 64, 257 and 32000, and its closure run must match the reference
    interpreter at 64 and 257 (any refutation, trap or divergence is a
    failure); the certified fraction must reach 0.25; and the static
    certificates must prove strictly more accesses than the bind-time
    interval check. *)

val gate_pass : gate -> bool
