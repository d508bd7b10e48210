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
   Stores never define a value and kill by array name.

   [across] additionally marks expressions whose value survives the back
   edge of the innermost loop — invariant operands and, for loads, an
   array no store in the body writes — i.e. the expressions LICM may hoist
   into the preheader prefix. *)

open Vir

type t = {
  ssa : Ssa.t;
  leader : int array;
      (* earliest dominating position computing the same value;
         leader.(p) = p when the position is its own leader *)
  avail_in : int array;
      (* number of distinct expression values available before each
         position *)
  across : bool array;
      (* value survives the innermost back edge (hoistable) *)
}

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

let analyze ?df (k : Kernel.t) =
  let ssa = Ssa.of_kernel k in
  let df = match df with Some d -> d | None -> Dataflow.analyze k in
  let body = ssa.Ssa.body in
  let n = Array.length body in
  let leader = Array.init n (fun i -> i) in
  let avail_in = Array.make n 0 in
  let across = Array.make n false in
  let seen : (Instr.t, int) Hashtbl.t = Hashtbl.create 16 in
  let store_seen : (string, int) Hashtbl.t = Hashtbl.create 4 in
  for pos = 0 to n - 1 do
    avail_in.(pos) <- Hashtbl.length seen;
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
          when Ssa.def_dominates_use ssa ~def:prev ~use:pos
               && not (killed prev) ->
            leader.(pos) <- prev
        | _ -> Hashtbl.replace seen instr pos)
    | _ -> (
        match Hashtbl.find_opt seen instr with
        | Some prev when Ssa.def_dominates_use ssa ~def:prev ~use:pos ->
            leader.(pos) <- prev
        | _ -> Hashtbl.replace seen instr pos)
  done;
  Array.iteri
    (fun pos instr ->
      across.(pos) <-
        (not (Instr.is_store instr))
        && leader.(pos) = pos
        && df.Dataflow.invariant.(pos))
    body;
  { ssa; leader; avail_in; across }

let leader_of t pos = t.leader.(pos)
let redundant t pos = t.leader.(pos) <> pos
