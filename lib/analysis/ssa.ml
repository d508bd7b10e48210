(* The SSA-by-position invariant.

   A kernel body is already in SSA-by-position form — the instruction at
   index [k] defines virtual register [k], stores define nothing — but that
   invariant is implicit everywhere else in the codebase.  [check] makes it
   checkable: it rejects uses of undefined or store-position registers and
   uses that precede their definition.

   The loop nest is structured and its body is one block, so a definition
   dominates a use exactly when it textually precedes it; no CFG or
   dominator tree is needed to answer the optimizer's legality question. *)

open Vir

exception Not_ssa of string

let check (k : Kernel.t) =
  let body = Array.of_list k.Kernel.body in
  let n = Array.length body in
  let check_use ctx r =
    if r < 0 || r >= n then
      raise (Not_ssa (Printf.sprintf "%s reads undefined register r%d" ctx r));
    if Instr.is_store body.(r) then
      raise
        (Not_ssa
           (Printf.sprintf "%s reads r%d, which is a store and defines nothing"
              ctx r))
  in
  Array.iteri
    (fun pos instr ->
      List.iter
        (fun r ->
          let ctx = Printf.sprintf "instruction %d" pos in
          check_use ctx r;
          if r >= pos then
            raise
              (Not_ssa
                 (Printf.sprintf
                    "instruction %d reads r%d before its definition" pos r)))
        (Instr.reg_uses instr))
    body;
  List.iter
    (fun (red : Kernel.reduction) ->
      match red.red_src with
      | Instr.Reg r -> check_use ("reduction " ^ red.red_name) r
      | _ -> ())
    k.reductions

(* The bound checks make this total. *)
let def_dominates_use ~len ~def ~use =
  def >= 0 && use >= 0 && def < use && use < len
