(** Relational bounds domain: symbolic affine constraints over loop
    variables, runtime parameters, and subscripts, proved parametrically in
    the problem size.

    Unlike {!Vir.Bounds} (exact evaluation at witness sizes) and
    {!Vexec.Closure.affine_safe} (exact intervals for one concrete
    binding), a [Safe] verdict here holds for {e every} n >= 4 and every
    parameter assignment inside the environment contracts
    ({!Vir.Bounds.param_contract}): it is a claim about every binding,
    which {!Cert.gate} checks against the bind-time intervals.  Indirect
    subscripts are bounded through the environment's value contracts (index
    arrays hold a permutation of [0, n); unwritten integer data arrays hold
    values in [1, 4]) by symbolic evaluation of the index operand.

    The domain only ever answers [Safe] or [Unknown]; refutation (with a
    concrete witness) stays with {!Vir.Bounds} and is overlaid by
    {!Cert}. *)

type verdict =
  | Safe of string  (** proved; the payload is the proving constraint *)
  | Unknown of string  (** not provable here; the payload says why *)

type access_report = {
  ar_id : int;  (** access id: position among memory instructions, in body
                    order — the same numbering [Vexec.Program.lower]
                    assigns to access descriptors *)
  ar_pos : int;  (** body (SSA) position of the load/store *)
  ar_array : string;
  ar_store : bool;
  ar_indirect : bool;
  ar_verdict : verdict;
}

val analyze : Vir.Kernel.t -> access_report list
(** One report per memory instruction, in body order.  Never raises on
    well-formed kernels; anything outside the domain's fragment (float
    arithmetic feeding an index, non-positive steps over possibly nonempty
    ranges, multiplication of two non-constant values, ...) degrades to
    [Unknown], never to a wrong [Safe]. *)
