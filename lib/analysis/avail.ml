(* Available expressions over the SSA body.

   Classic value numbering, specialized to the single-block bodies the IR
   guarantees: a forward sweep assigns every position a *leader* — the
   earliest dominating position computing the same value — by hashing the
   canonical form of each instruction.  Canonicalization rewrites operands
   through the leaders found so far (so chains of copies collapse) and
   sorts the operand pair of commutative binops, making [a+b] and [b+a]
   one value.

   Loads participate with the usual kill rule: a load is available only
   until the next store to its array (array-granular memory dependence,
   the same conservative rule the vectorizer's dependence tests use).
   Stores never define a value and kill by array name. *)

open Vir

(* Earliest dominating position computing the same value; leader.(p) = p
   when the position is its own leader. *)
type t = int array

(* Canonical form used as the hash key: operands rewritten to their
   leaders, commutative operand pairs sorted, addresses normalized. *)
let canonical leader instr =
  let subst = function
    | Instr.Reg r when r >= 0 && r < Array.length leader ->
        Instr.Reg leader.(r)
    | op -> op
  in
  let instr = Instr.map_operands subst instr in
  match instr with
  | Instr.Bin ({ op; a; b; _ } as r)
    when Op.binop_commutative op && compare b a < 0 ->
      Instr.Bin { r with a = b; b = a }
  | Instr.Fma ({ a; b; _ } as r) when compare b a < 0 ->
      Instr.Fma { r with a = b; b = a }
  | Instr.Load { ty; addr } -> Instr.Load { ty; addr = Instr.normalize_addr addr }
  | Instr.Store { ty; addr; src } ->
      Instr.Store { ty; addr = Instr.normalize_addr addr; src }
  | i -> i

let analyze (k : Kernel.t) =
  Ssa.check k;
  let body = Array.of_list k.Kernel.body in
  let n = Array.length body in
  let leader = Array.init n (fun i -> i) in
  let seen : (Instr.t, int) Hashtbl.t = Hashtbl.create 16 in
  let store_seen : (string, int) Hashtbl.t = Hashtbl.create 4 in
  for pos = 0 to n - 1 do
    let instr = canonical leader body.(pos) in
    match instr with
    | Instr.Store { addr; _ } ->
        Hashtbl.replace store_seen (Instr.addr_array addr) pos
    | Instr.Load { addr; _ } -> (
        let arr = Instr.addr_array addr in
        let killed prev =
          match Hashtbl.find_opt store_seen arr with
          | Some s -> s > prev
          | None -> false
        in
        match Hashtbl.find_opt seen instr with
        | Some prev
          when Ssa.def_dominates_use ~len:n ~def:prev ~use:pos
               && not (killed prev) ->
            leader.(pos) <- prev
        | _ -> Hashtbl.replace seen instr pos)
    | _ -> (
        match Hashtbl.find_opt seen instr with
        | Some prev when Ssa.def_dominates_use ~len:n ~def:prev ~use:pos ->
            leader.(pos) <- prev
        | _ -> Hashtbl.replace seen instr pos)
  done;
  leader

let leader_of t pos = t.(pos)
