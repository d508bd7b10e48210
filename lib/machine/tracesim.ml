(* Trace-driven cache simulation: replay a kernel's exact element accesses
   through a cache hierarchy built from a machine's memory parameters.  The
   accesses come from the process's execution backend ([Vexec.Backend]),
   which reports each one by array slot.

   This validates the analytic [Memmodel]: the level it picks from the
   working-set size should match where the simulated hierarchy actually
   serves the traffic. *)

open Vir

(* Lay the kernel's arrays out contiguously (16-line gaps between arrays so
   they do not share boundary lines), and map (array slot, element) to a
   byte address.  Both arrays are indexed by slot, as the backend's trace
   reports accesses. *)
type layout = { base : int array; elt_bytes : int array }

let layout ~n ~line_bytes (k : Kernel.t) =
  let decls = Vexec.Program.array_decls k in
  let elt_bytes =
    Array.map (fun (d : Kernel.array_decl) -> Types.size_bytes d.arr_ty) decls
  in
  let base = Array.make (Array.length decls) 0 in
  for s = 1 to Array.length decls - 1 do
    let prev = decls.(s - 1) in
    base.(s) <-
      base.(s - 1)
      + (Kernel.extent_elems ~n prev.arr_extent * elt_bytes.(s - 1))
      + (16 * line_bytes)
  done;
  { base; elt_bytes }

let address l ~slot ~idx =
  if slot < 0 || slot >= Array.length l.base then
    invalid_arg (Printf.sprintf "Tracesim.address: unknown array slot %d" slot);
  Array.unsafe_get l.base slot + (idx * Array.unsafe_get l.elt_bytes slot)

type stats = {
  total_accesses : int;
  per_level : (Memmodel.level * int * int) list;
      (* level, accesses reaching it, misses at it *)
  dram_accesses : int;
  bytes_moved_per_elem : float;
      (* line_bytes * (misses at the last cache level) / iterations *)
}

(* The cache configs for a machine's memory description: L1, and the levels
   an L1 miss filters down through. *)
let hierarchy_of (mem : Descr.mem) =
  let cfg size_bytes ways = { Cache.size_bytes; ways; line_bytes = mem.line_bytes } in
  ( cfg mem.l1_bytes 4,
    if mem.l3_bytes > 0 then [ cfg mem.l2_bytes 8; cfg mem.l3_bytes 16 ]
    else [ cfg mem.l2_bytes 8 ] )

(* Run the scalar kernel at size [n] on the process's default backend, with
   every access fed through the hierarchy.  A first untimed pass warms the
   caches (measurements in the paper are steady-state over many
   repetitions); the second pass counts.

   Most accesses land in the L1 line their array slot touched last, so each
   slot remembers that line and the L1 way it went to.  An access inside the
   line is an L1 hit when the way still holds it ([Cache.rehit]): the line
   leaves its way only when its set installs another line there, and a hit
   changes nothing but the way's stamp.  Every other access walks the
   hierarchy and records its line and way. *)
let simulate (mem : Descr.mem) ~n (k : Kernel.t) =
  let env = Vinterp.Env.create ~seed:42 ~n k in
  let l = layout ~n ~line_bytes:mem.line_bytes k in
  let l1_cfg, lower_cfgs = hierarchy_of mem in
  let l1 = Cache.create l1_cfg and lower = Cache.hierarchy lower_cfgs in
  let line_bytes = mem.line_bytes in
  let slots = Array.length l.base in
  let line_of = Array.make slots (-1) and way_of = Array.make slots (-1) in
  let trace slot idx _write =
    let addr = address l ~slot ~idx in
    let line = Array.unsafe_get line_of slot in
    let offset = addr - (line * line_bytes) in
    if
      not
        (offset >= 0
        && offset < line_bytes
        && Cache.rehit l1 ~way:(Array.unsafe_get way_of slot) ~line)
    then begin
      let w = Cache.access_way l1 addr in
      if w < 0 then ignore (Cache.hierarchy_access lower addr);
      Array.unsafe_set line_of slot (addr / line_bytes);
      Array.unsafe_set way_of slot (if w < 0 then lnot w else w)
    end
  in
  let prepared = Vexec.Backend.prepare ~trace (Vexec.Backend.default ()) k in
  let levels = l1 :: lower.Cache.levels in
  (* Warm-up pass. *)
  ignore (Vexec.Backend.run_in prepared env);
  List.iter Cache.reset_stats levels;
  (* Measured pass. *)
  ignore (Vexec.Backend.run_in prepared env);
  let iters = float_of_int (max 1 (Kernel.total_iterations ~n k)) in
  let per_level =
    List.mapi
      (fun i c ->
        let lvl =
          match i with
          | 0 -> Memmodel.L1
          | 1 -> Memmodel.L2
          | 2 -> Memmodel.L3
          | _ -> Memmodel.Dram
        in
        (lvl, Cache.accesses c, Cache.misses c))
      levels
  in
  (* Every access reaches L1, and the last level's misses go to DRAM. *)
  let last_level_misses = Cache.misses (List.nth levels (List.length levels - 1)) in
  {
    total_accesses = Cache.accesses l1;
    per_level;
    dram_accesses = last_level_misses;
    bytes_moved_per_elem =
      float_of_int (last_level_misses * mem.line_bytes) /. iters;
  }

(* The level the stream actually lives in: one past the deepest level with a
   non-trivial steady-state miss rate.  The 2% threshold sits below the 6.25%
   compulsory rate of a unit-stride f32 stream (one line miss per 16
   elements) and above warm-cache noise. *)
let dominant_level (s : stats) =
  let rec go acc = function
    | [] -> acc
    | (lvl, accs, misses) :: rest ->
        if accs > 0 && float_of_int misses /. float_of_int accs > 0.02 then
          go
            (match rest with
            | [] -> Memmodel.Dram
            | _ -> (match lvl with
                    | Memmodel.L1 -> Memmodel.L2
                    | Memmodel.L2 -> Memmodel.L3
                    | Memmodel.L3 | Memmodel.Dram -> Memmodel.Dram))
            rest
        else acc
  in
  go Memmodel.L1 s.per_level

(* Agreement between the analytic level choice and the simulated dominant
   level, within one level of slack (the analytic model has no L3 on cores
   without one, and footprint boundaries are soft). *)
let level_rank = function
  | Memmodel.L1 -> 0
  | Memmodel.L2 -> 1
  | Memmodel.L3 -> 2
  | Memmodel.Dram -> 3

let agrees ~analytic ~simulated =
  abs (level_rank analytic - level_rank simulated) <= 1
