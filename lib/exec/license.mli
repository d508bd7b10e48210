(** Static safety licenses consumed by the execution tiers.

    Plain data emitted by the relational certifier ([Analysis.Cert]): one
    verdict per access descriptor of the lowered program, in access-id
    order.  [Backend.prepare] takes an optional license.  The closure tier
    picks its body on every bind from the bind-time interval proof; when
    [guard_free] holds and that proof fails, the contradiction is a hard
    failure instead of a guarded run. *)

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
