(* Concrete machine models.

   [neon_a57]: an ARMv8 big core with 128-bit NEON in the style of the
   Cortex-A57 — two 64-bit-datapath SIMD pipes (so one full-width vector op
   occupies a pipe for two cycles), one load and one store port, no gather.
   This is the stand-in for the paper's ARM board.

   [xeon_avx2]: a Haswell-class Xeon E5 with 256-bit AVX2 — full-width FMA
   pipes, two load ports, a (slow) native gather.  Stand-in for the paper's
   x86 comparison machine.

   [sve_256]: a hypothetical wider ARM core (SVE-like 256-bit, native
   gather), used by the VF-sensitivity ablation only.

   [cortex_a53]: an in-order, 2-wide little core with one 64-bit NEON pipe,
   used by the big.LITTLE ablation only.

   Latencies/throughputs are in the right ballpark for those cores
   (Cortex-A57 Software Optimisation Guide; Agner Fog's Haswell tables); the
   reproduction needs faithful *ratios*, not exact figures. *)

open Vir
open Descr

let info ~lat ~rtp ~unit_kind ?(uops = 1) () = { lat; rtp; unit_kind; uops }

let is64 = function Types.F64 | Types.I64 -> true | Types.F32 | Types.I32 -> false

(* ----- Cortex-A57-like, 128-bit NEON ---------------------------------- *)

let a57_scalar (c : Opclass.t) ty =
  match c with
  | Opclass.Int_alu -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_alu ()
  | Opclass.Int_mul -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_alu ()
  | Opclass.Int_div -> info ~lat:19.0 ~rtp:19.0 ~unit_kind:U_alu ()
  | Opclass.Fp_add -> info ~lat:5.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_mul -> info ~lat:5.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_fma -> info ~lat:9.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_div ->
      if is64 ty then info ~lat:32.0 ~rtp:32.0 ~unit_kind:U_fpu ()
      else info ~lat:18.0 ~rtp:18.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_sqrt ->
      if is64 ty then info ~lat:32.0 ~rtp:32.0 ~unit_kind:U_fpu ()
      else info ~lat:17.0 ~rtp:17.0 ~unit_kind:U_fpu ()
  | Opclass.Cmp -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Select -> info ~lat:2.0 ~rtp:1.0 ~unit_kind:U_alu ()
  | Opclass.Cast -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Load | Opclass.Load_unaligned ->
      (* Scalar accesses are element-aligned; no split penalty. *)
      info ~lat:4.0 ~rtp:1.0 ~unit_kind:U_mem_load ()
  | Opclass.Store | Opclass.Store_unaligned ->
      info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_mem_store ()
  | Opclass.Shuffle -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_fpu ()

(* Full-width (128-bit) NEON ops keep the scalar latency but occupy a 64-bit
   pipe for two cycles. *)
let a57_vector (c : Opclass.t) ty =
  match c with
  | Opclass.Int_alu -> info ~lat:3.0 ~rtp:2.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Int_mul -> info ~lat:4.0 ~rtp:2.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Int_div -> info ~lat:40.0 ~rtp:40.0 ~unit_kind:U_fpu ~uops:4 ()
  | Opclass.Fp_add -> info ~lat:5.0 ~rtp:2.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Fp_mul -> info ~lat:5.0 ~rtp:2.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Fp_fma -> info ~lat:9.0 ~rtp:2.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Fp_div ->
      if is64 ty then info ~lat:60.0 ~rtp:60.0 ~unit_kind:U_fpu ~uops:2 ()
      else info ~lat:34.0 ~rtp:34.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Fp_sqrt ->
      if is64 ty then info ~lat:60.0 ~rtp:60.0 ~unit_kind:U_fpu ~uops:2 ()
      else info ~lat:32.0 ~rtp:32.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Cmp -> info ~lat:3.0 ~rtp:2.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Select -> info ~lat:3.0 ~rtp:2.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Cast -> info ~lat:4.0 ~rtp:2.0 ~unit_kind:U_fpu ~uops:2 ()
  | Opclass.Load -> info ~lat:5.0 ~rtp:1.0 ~unit_kind:U_mem_load ()
  | Opclass.Load_unaligned ->
      (* Off-lane LDR Q: an extra cycle through the load pipe. *)
      info ~lat:6.0 ~rtp:1.5 ~unit_kind:U_mem_load ()
  | Opclass.Store -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_mem_store ()
  | Opclass.Store_unaligned -> info ~lat:2.0 ~rtp:1.5 ~unit_kind:U_mem_store ()
  | Opclass.Shuffle -> info ~lat:3.0 ~rtp:2.0 ~unit_kind:U_fpu ~uops:2 ()

let neon_a57 =
  {
    name = "neon-a57";
    vector_bits = 128;
    issue_width = 3;
    units = [ (U_alu, 2); (U_fpu, 2); (U_mem_load, 1); (U_mem_store, 1) ];
    scalar_op = a57_scalar;
    vector_op = a57_vector;
    gather = Scalarized;
    inorder = false;
    mem =
      {
        line_bytes = 64;
        l1_bytes = 32 * 1024;
        l2_bytes = 2 * 1024 * 1024;
        l3_bytes = 0;
        l1_bw = 16.0;
        l2_bw = 8.0;
        l3_bw = 8.0;
        dram_bw = 3.0;
        l1_lat = 4.0;
        l2_lat = 13.0;
        l3_lat = 13.0;
        dram_lat = 180.0;
      };
    loop_uops = 2;
    vec_setup_cycles = 40.0;
  }

(* ----- Haswell-like Xeon, 256-bit AVX2 -------------------------------- *)

let hsw_scalar (c : Opclass.t) ty =
  match c with
  | Opclass.Int_alu -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_alu ()
  | Opclass.Int_mul -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_alu ()
  | Opclass.Int_div -> info ~lat:26.0 ~rtp:10.0 ~unit_kind:U_alu ()
  | Opclass.Fp_add -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_mul -> info ~lat:5.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_fma -> info ~lat:5.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_div ->
      if is64 ty then info ~lat:20.0 ~rtp:14.0 ~unit_kind:U_fpu ()
      else info ~lat:13.0 ~rtp:7.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_sqrt ->
      if is64 ty then info ~lat:20.0 ~rtp:13.0 ~unit_kind:U_fpu ()
      else info ~lat:15.0 ~rtp:8.0 ~unit_kind:U_fpu ()
  | Opclass.Cmp -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Select -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_alu ()
  | Opclass.Cast -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Load | Opclass.Load_unaligned ->
      info ~lat:4.0 ~rtp:1.0 ~unit_kind:U_mem_load ()
  | Opclass.Store | Opclass.Store_unaligned ->
      info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_mem_store ()
  | Opclass.Shuffle -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_fpu ()

let hsw_vector (c : Opclass.t) ty =
  match c with
  | Opclass.Int_alu -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Int_mul -> info ~lat:5.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Int_div -> info ~lat:40.0 ~rtp:24.0 ~unit_kind:U_fpu ~uops:4 ()
  | Opclass.Fp_add -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_mul -> info ~lat:5.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_fma -> info ~lat:5.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_div ->
      if is64 ty then info ~lat:35.0 ~rtp:28.0 ~unit_kind:U_fpu ()
      else info ~lat:21.0 ~rtp:13.0 ~unit_kind:U_fpu ()
  | Opclass.Fp_sqrt ->
      if is64 ty then info ~lat:35.0 ~rtp:28.0 ~unit_kind:U_fpu ()
      else info ~lat:21.0 ~rtp:13.0 ~unit_kind:U_fpu ()
  | Opclass.Cmp -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Select -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Cast -> info ~lat:3.0 ~rtp:1.0 ~unit_kind:U_fpu ()
  | Opclass.Load -> info ~lat:5.0 ~rtp:1.0 ~unit_kind:U_mem_load ()
  | Opclass.Load_unaligned ->
      (* Haswell's VMOVUPS is nearly free when it stays within a line. *)
      info ~lat:6.0 ~rtp:1.0 ~unit_kind:U_mem_load ()
  | Opclass.Store -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_mem_store ()
  | Opclass.Store_unaligned -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_mem_store ()
  | Opclass.Shuffle -> info ~lat:1.0 ~rtp:1.0 ~unit_kind:U_fpu ()

let xeon_avx2 =
  {
    name = "xeon-avx2";
    vector_bits = 256;
    issue_width = 4;
    units = [ (U_alu, 3); (U_fpu, 2); (U_mem_load, 2); (U_mem_store, 1) ];
    scalar_op = hsw_scalar;
    vector_op = hsw_vector;
    gather = Native { per_elem_rtp = 1.5 };
    inorder = false;
    mem =
      {
        line_bytes = 64;
        l1_bytes = 32 * 1024;
        l2_bytes = 256 * 1024;
        l3_bytes = 24 * 1024 * 1024;
        l1_bw = 64.0;
        l2_bw = 32.0;
        l3_bw = 16.0;
        dram_bw = 8.0;
        l1_lat = 4.0;
        l2_lat = 12.0;
        l3_lat = 40.0;
        dram_lat = 200.0;
      };
    loop_uops = 2;
    vec_setup_cycles = 50.0;
  }

(* ----- Hypothetical 256-bit ARM (SVE-like), for the VF ablation -------- *)

let sve_vector (c : Opclass.t) ty =
  let i = a57_vector c ty in
  (* Wider datapath: full 256-bit ops, one per cycle per pipe. *)
  { i with rtp = Float.max 1.0 (i.rtp /. 2.0) }

let sve_256 =
  {
    neon_a57 with
    name = "sve-256";
    vector_bits = 256;
    vector_op = sve_vector;
    gather = Native { per_elem_rtp = 2.0 };
    mem = { neon_a57.mem with l1_bw = 32.0; l2_bw = 16.0 };
  }

(* ----- Cortex-A53-like little core: 2-wide, in-order, 64-bit NEON pipe -- *)

let a53_scalar (c : Opclass.t) ty =
  let i = a57_scalar c ty in
  match c with
  | Opclass.Load -> { i with lat = 3.0 }
  | Opclass.Fp_add | Opclass.Fp_mul -> { i with lat = 4.0 }
  | _ -> i

let cortex_a53 =
  {
    name = "cortex-a53";
    vector_bits = 128;
    issue_width = 2;
    (* One 64-bit NEON pipe (the A57 has two).  A 128-bit op's two passes
       through it are already in the A57 vector table's rtp. *)
    units = [ (U_alu, 2); (U_fpu, 1); (U_mem_load, 1); (U_mem_store, 1) ];
    scalar_op = a53_scalar;
    vector_op = a57_vector;
    gather = Scalarized;
    inorder = true;
    mem =
      {
        line_bytes = 64;
        l1_bytes = 32 * 1024;
        l2_bytes = 512 * 1024;
        l3_bytes = 0;
        l1_bw = 8.0;
        l2_bw = 4.0;
        l3_bw = 4.0;
        dram_bw = 2.0;
        l1_lat = 3.0;
        l2_lat = 15.0;
        l3_lat = 15.0;
        dram_lat = 160.0;
      };
    loop_uops = 2;
    vec_setup_cycles = 30.0;
  }

let all = [ neon_a57; xeon_avx2; sve_256; cortex_a53 ]

let by_name name = List.find_opt (fun m -> String.equal m.name name) all
