(** Machine descriptions: per-class latency/throughput tables over a small
    set of functional units, a cache hierarchy, and structural parameters. *)

type unit_kind = U_alu | U_fpu | U_mem_load | U_mem_store

val unit_kind_to_string : unit_kind -> string

type op_info = {
  lat : float;  (** result latency in cycles *)
  rtp : float;  (** reciprocal throughput on one unit *)
  unit_kind : unit_kind;
  uops : int;
}

type gather_policy = Scalarized | Native of { per_elem_rtp : float }

type mem = {
  line_bytes : int;
  l1_bytes : int;
  l2_bytes : int;
  l3_bytes : int;  (** 0 when the core has no L3 *)
  l1_bw : float;
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
  issue_width : int;
  units : (unit_kind * int) list;
  scalar_op : Opclass.t -> Vir.Types.scalar -> op_info;
  vector_op : Opclass.t -> Vir.Types.scalar -> op_info;
  gather : gather_policy;
  mem : mem;
  inorder : bool;
      (* in-order pipeline: per-iteration latency chains are exposed
         instead of being hidden by out-of-order execution *)
  loop_uops : int;
  vec_setup_cycles : float;
}

(** The VF LLVM would pick: from the widest type moved through memory. *)
val vf_for_kernel : t -> Vir.Kernel.t -> int
