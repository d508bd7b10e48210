(** Trace-driven cache simulation: replay a kernel's exact accesses through
    a set-associative hierarchy built from a machine's memory parameters,
    to validate the analytic {!Memmodel}. *)

type layout

(** Contiguous array layout with inter-array gaps, indexed by slot
    ({!Vexec.Program.array_decls}). *)
val layout : n:int -> line_bytes:int -> Vir.Kernel.t -> layout

(** Byte address of element [idx] of the array in [slot]
    ({!Vexec.Program.array_slot}).
    @raise Invalid_argument when the kernel has no such slot. *)
val address : layout -> slot:int -> idx:int -> int

type stats = {
  total_accesses : int;
  per_level : (Memmodel.level * int * int) list;
      (** level, accesses reaching it, misses at it *)
  dram_accesses : int;
  bytes_moved_per_elem : float;
}

(** Run the scalar kernel twice at size [n] on {!Vexec.Backend.default}, one
    environment (seed 42) for both, with every access simulated: a warm-up pass, then
    the measured pass the stats count. *)
val simulate : Descr.mem -> n:int -> Vir.Kernel.t -> stats

(** Where the stream actually lives.  Walking down from L1, levels whose
    local miss rate exceeds 2% pass the stream on; the answer is one level
    past the last of them (DRAM past the last cache), or L1 when L1 itself
    misses at most 2%. *)
val dominant_level : stats -> Memmodel.level

(** Analytic vs simulated agreement, within one level of slack. *)
val agrees : analytic:Memmodel.level -> simulated:Memmodel.level -> bool
