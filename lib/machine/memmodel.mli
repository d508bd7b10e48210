(** Cache-hierarchy behaviour: bottleneck level and effective bytes moved
    per access at that level. *)

type level = L1 | L2 | L3 | Dram

val level_to_string : level -> string

(** Smallest level that holds the whole working set. *)
val level_of : Descr.mem -> footprint_bytes:int -> level

(** Sustainable bytes per cycle at a level. *)
val bandwidth : Descr.mem -> level -> float

(** Bytes one element access effectively pulls through the bottleneck:
    invariant accesses are free, sparse accesses pay whole lines beyond
    L1. *)
val effective_bytes : Descr.mem -> level -> Vir.Kernel.stride -> int -> float

(** Probability that a [vector_bytes]-wide access at an element-aligned but
    vector-unaligned start crosses a cache-line boundary — the extra
    occupancy an unaligned vector access pays on split-handling hardware. *)
val split_fraction : Descr.mem -> vector_bytes:int -> elt_bytes:int -> float
