(** Static safety licenses consumed by the execution tiers.

    Plain data emitted by the relational certifier ([Analysis.Cert]): one
    verdict per access descriptor of the lowered program, in access-id
    order.  [Backend.prepare] takes an optional license and the closure
    tier selects the guard-free body once at prepare time when
    [guard_free] holds, keeping the bind-time interval proof as a
    mandatory cross-check. *)

type verdict = Safe | Unsafe | Unknown

type t = {
  lic_kernel : string;
  lic_verdicts : verdict array;  (** indexed by access id *)
}

val make : kernel:string -> verdict array -> t

(** Whether the license permits the unchecked body of [prog]: it names the
    program's kernel, covers its access set, and certifies every affine
    access [Safe].  Indirect accesses stay guarded in both body variants
    and place no obligation here. *)
val guard_free : t -> Program.t -> bool
