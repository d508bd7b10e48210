(* Static safety licenses: the execution-side half of the certificate
   handshake with the relational certifier (Analysis.Cert).

   A license is plain data — one verdict per access descriptor of a lowered
   program, in access-id order (one id per memory instruction, body order).
   The certifier proves its verdicts parametrically in the problem size and
   the runtime parameters and hands the license to [Backend.prepare].  The
   closure tier still decides on every bind: [Closure.run_bound] runs the
   unchecked body exactly when the bind-time interval proof
   ([Closure.affine_safe]) holds.  A license only changes what a failed
   proof means: a [Safe] license the bind-time check contradicts is a hard
   failure, not a quiet fall-back to the guarded body.  This module lives
   in [lib/exec] (not the analysis library) so the execution tiers never
   depend on the prover — only on the data it emits. *)

type verdict = Safe | Unsafe | Unknown

type t = {
  lic_kernel : string;
  lic_verdicts : verdict array;  (* indexed by access id *)
}

let make ~kernel verdicts = { lic_kernel = kernel; lic_verdicts = verdicts }

(* A license permits the guard-free (unchecked) body only when it covers
   exactly this program's access set, names the same kernel, and certifies
   every affine access [Safe].  Indirect accesses keep their guards in both
   body variants, so their verdicts place no obligation here. *)
let guard_free (lic : t) (prog : Program.t) =
  String.equal lic.lic_kernel prog.kernel.Vir.Kernel.name
  && Array.length lic.lic_verdicts = Array.length prog.accesses
  &&
  let ok = ref true in
  Array.iteri
    (fun a (acc : Program.access) ->
      if acc.acc_ind < 0 && lic.lic_verdicts.(a) <> Safe then ok := false)
    prog.accesses;
  !ok

