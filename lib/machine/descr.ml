(* Machine descriptions: an analytic out-of-order core model in the spirit of
   llvm-mca — per-class latency/throughput tables over a small set of
   functional units, a cache/bandwidth hierarchy, and a few structural
   parameters.  Concrete machines live in [Machines]. *)

open Vir

type unit_kind = U_alu | U_fpu | U_mem_load | U_mem_store

let unit_kind_to_string = function
  | U_alu -> "alu"
  | U_fpu -> "fpu"
  | U_mem_load -> "load"
  | U_mem_store -> "store"

type op_info = {
  lat : float;  (* result latency in cycles *)
  rtp : float;  (* reciprocal throughput on one unit, cycles *)
  unit_kind : unit_kind;
  uops : int;  (* frontend micro-ops *)
}

(* How wide gathers/scatters execute: scalarized element loads (NEON) or a
   native instruction with a per-element cost (AVX2). *)
type gather_policy = Scalarized | Native of { per_elem_rtp : float }

type mem = {
  line_bytes : int;
  l1_bytes : int;
  l2_bytes : int;
  l3_bytes : int;  (* 0 when the core has no L3 *)
  l1_bw : float;  (* sustainable bytes per cycle *)
  l2_bw : float;
  l3_bw : float;
  dram_bw : float;
  l1_lat : float;
  l2_lat : float;
  l3_lat : float;
  dram_lat : float;
}

type t = {
  name : string;
  vector_bits : int;
  issue_width : int;  (* frontend micro-ops per cycle *)
  units : (unit_kind * int) list;
  scalar_op : Opclass.t -> Types.scalar -> op_info;
  vector_op : Opclass.t -> Types.scalar -> op_info;  (* one full-width op *)
  gather : gather_policy;
  mem : mem;
  inorder : bool;
      (* in-order pipeline: per-iteration latency chains are exposed
         instead of being hidden by out-of-order execution *)
  loop_uops : int;  (* loop-control micro-ops per iteration/block *)
  vec_setup_cycles : float;  (* one-off vector prologue + epilogue cost *)
}

(* LLVM picks the VF from the widest type moved through memory. *)
let widest_mem_bytes (k : Kernel.t) =
  List.fold_left
    (fun acc i ->
      match i with
      | Instr.Load { ty; _ } | Instr.Store { ty; _ } ->
          max acc (Types.size_bytes ty)
      | Instr.Bin _ | Instr.Una _ | Instr.Fma _ | Instr.Cmp _ | Instr.Select _
      | Instr.Cast _ ->
          acc)
    4 k.body

let vf_for_kernel t (k : Kernel.t) = max 1 (t.vector_bits / (8 * widest_mem_bytes k))
