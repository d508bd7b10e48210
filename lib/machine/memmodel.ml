(* Cache-hierarchy behaviour: which level a kernel's working set streams
   from, and how many bytes an access effectively moves at that level.
   Non-unit strides and gathers waste most of each cache line once the
   working set no longer fits in L1, which is what makes memory-bound TSVC
   kernels profit so little from SIMD. *)

open Vir

type level = L1 | L2 | L3 | Dram

let level_to_string = function
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | Dram -> "DRAM"

let level_of (mem : Descr.mem) ~footprint_bytes =
  if footprint_bytes <= mem.l1_bytes then L1
  else if footprint_bytes <= mem.l2_bytes then L2
  else if mem.l3_bytes > 0 && footprint_bytes <= mem.l3_bytes then L3
  else Dram

let bandwidth (mem : Descr.mem) = function
  | L1 -> mem.l1_bw
  | L2 -> mem.l2_bw
  | L3 -> mem.l3_bw
  | Dram -> mem.dram_bw

(* Bytes one element access effectively pulls through the bottleneck level.
   Loop-invariant locations stay in registers; contiguous and reversed
   traversals use whole lines; sparse traversals pay for the full line
   beyond L1. *)
let effective_bytes (mem : Descr.mem) level (stride : Kernel.stride) elt_bytes =
  match stride with
  | Kernel.Sconst 0 -> 0.0
  | Kernel.Sconst c when abs c = 1 -> float_of_int elt_bytes
  | Kernel.Sconst c -> (
      match level with
      | L1 -> float_of_int elt_bytes
      | L2 | L3 | Dram -> float_of_int (min mem.line_bytes (abs c * elt_bytes)))
  | Kernel.Srow _ | Kernel.Sindirect -> (
      match level with
      | L1 -> float_of_int elt_bytes
      | L2 | L3 | Dram -> float_of_int mem.line_bytes)

(* Probability that a [vector_bytes]-wide access at an unaligned (uniformly
   placed) element offset straddles a cache-line boundary: of the
   line_bytes/elt positions a w-byte access can start at, those in the last
   w - elt bytes of a line cross into the next one. *)
let split_fraction (mem : Descr.mem) ~vector_bytes ~elt_bytes =
  if mem.line_bytes <= 0 || vector_bytes <= elt_bytes then 0.0
  else
    let starts = mem.line_bytes / max 1 elt_bytes in
    let crossing = (vector_bytes - elt_bytes) / max 1 elt_bytes in
    float_of_int (min crossing starts) /. float_of_int (max 1 starts)
