(* Tests for the machine model: descriptions, memory hierarchy, cycle
   estimator and the measurement layer. *)

open Vir
module B = Builder
module M = Vmachine.Machines
module D = Vmachine.Descr
module Mem = Vmachine.Memmodel
module S = Vmachine.Sched
module Ms = Vmachine.Measure

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let kern name = (Tsvc.Registry.find_exn name).kernel

let llv ?(machine = M.neon_a57) k =
  let vf = D.vf_for_kernel machine k in
  match Vvect.Llv.vectorize ~vf k with
  | Ok vk -> vk
  | Error e -> Alcotest.failf "LLV failed: %s" (Vvect.Llv.error_to_string e)

(* --- descriptions ---------------------------------------------------------- *)

let test_vf_for_kernel () =
  check_int "f32 kernel" 4 (D.vf_for_kernel M.neon_a57 (kern "s000"));
  (* Index-array (I32) loads do not narrow the VF on NEON. *)
  check_int "gather kernel" 4 (D.vf_for_kernel M.neon_a57 (kern "vag"))

let test_machine_lookup () =
  (* Descriptions hold closures, so compare by name only. *)
  check "by_name finds" true
    (match M.by_name "neon-a57" with
    | Some m -> String.equal m.D.name "neon-a57"
    | None -> false);
  check "by_name misses" true (M.by_name "pentium" = None);
  check_int "four machines" 4 (List.length M.all)

(* --- memory model ----------------------------------------------------------- *)

let test_level_selection () =
  let mem = M.xeon_avx2.D.mem in
  check "small in l1" true (Mem.level_of mem ~footprint_bytes:1024 = Mem.L1);
  check "mid in l2" true (Mem.level_of mem ~footprint_bytes:(100 * 1024) = Mem.L2);
  check "large in l3" true
    (Mem.level_of mem ~footprint_bytes:(1024 * 1024) = Mem.L3);
  check "huge in dram" true
    (Mem.level_of mem ~footprint_bytes:(100 * 1024 * 1024) = Mem.Dram)

let test_no_l3_machine () =
  let mem = M.neon_a57.D.mem in
  check "a57 skips l3" true
    (Mem.level_of mem ~footprint_bytes:(3 * 1024 * 1024) = Mem.Dram)

let test_effective_bytes () =
  let mem = M.neon_a57.D.mem in
  check "invariant free" true
    (Mem.effective_bytes mem Mem.L2 (Kernel.Sconst 0) 4 = 0.0);
  check "contig elt" true
    (Mem.effective_bytes mem Mem.L2 (Kernel.Sconst 1) 4 = 4.0);
  check "reverse elt" true
    (Mem.effective_bytes mem Mem.L2 (Kernel.Sconst (-1)) 4 = 4.0);
  check "stride 4 partial line" true
    (Mem.effective_bytes mem Mem.L2 (Kernel.Sconst 4) 4 = 16.0);
  check "gather whole line beyond l1" true
    (Mem.effective_bytes mem Mem.Dram Kernel.Sindirect 4 = 64.0);
  check "gather cheap in l1" true
    (Mem.effective_bytes mem Mem.L1 Kernel.Sindirect 4 = 4.0)

let test_bandwidth_ordering () =
  let mem = M.xeon_avx2.D.mem in
  check "bw decreases down the hierarchy" true
    (Mem.bandwidth mem Mem.L1 > Mem.bandwidth mem Mem.L2
    && Mem.bandwidth mem Mem.L2 > Mem.bandwidth mem Mem.L3
    && Mem.bandwidth mem Mem.L3 > Mem.bandwidth mem Mem.Dram)

(* --- estimator -------------------------------------------------------------- *)

let test_estimates_positive () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let est = S.scalar_estimate M.neon_a57 ~n:32000 e.kernel in
      check (e.kernel.Kernel.name ^ " positive") true (est.S.cycles > 0.0))
    Tsvc.Registry.all

let test_more_work_costs_more () =
  let small = kern "va" and big = kern "vbor" in
  let c k = (S.scalar_estimate M.neon_a57 ~n:4000 k).S.cycles in
  check "vbor costs more than va" true (c big > c small)

let test_division_expensive () =
  let b = B.make "divk" in
  let i = B.loop b "i" Kernel.Tn in
  B.store b "a" [ B.ix i ]
    (B.divf b (B.load b "b" [ B.ix i ]) (B.load b "c" [ B.ix i ]));
  let kdiv = B.finish b in
  let c k = (S.scalar_estimate M.neon_a57 ~n:1000 k).S.cycles in
  check "div slower than add" true (c kdiv > c (kern "s000"))

let test_reduction_latency_bound () =
  (* A scalar sum is latency-bound by the fp_add chain. *)
  let est = S.scalar_estimate M.neon_a57 ~n:1000 (kern "s311") in
  check "recurrence dominates" true
    (est.S.bounds.S.recurrence >= est.S.bounds.S.resource)

let test_memdep_recurrence_bound () =
  (* s1221: b[i] = b[i-4] + a[i]: chain latency spread over distance 4. *)
  let est = S.scalar_estimate M.neon_a57 ~n:1000 (kern "s1221") in
  check "memory recurrence visible" true (est.S.bounds.S.recurrence > 0.0)

let test_vector_estimate_speedup_bounds () =
  (* Vector per-block cycles never exceed vf * scalar per-iteration cycles
     by more than the scalarization overhead allows, and speedups stay below
     vf * (scalar issue advantage). *)
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      match Vvect.Llv.vectorize ~vf:4 e.kernel with
      | Error _ -> ()
      | Ok vk ->
          let m = Ms.measure ~noise_amp:0.0 M.neon_a57 ~n:32000 vk in
          check (e.kernel.Kernel.name ^ " speedup sane") true
            (m.Ms.speedup > 0.05 && m.Ms.speedup < 8.0))
    Tsvc.Registry.all

let test_memory_bound_kernel_flat () =
  (* Simple streaming copy at a DRAM-sized footprint gains little. *)
  let vk = llv (kern "va") in
  let m_small = Ms.measure ~noise_amp:0.0 M.neon_a57 ~n:2000 vk in
  let m_huge = Ms.measure ~noise_amp:0.0 M.neon_a57 ~n:4_000_000 vk in
  check "dram-bound speedup below cache-resident speedup" true
    (m_huge.Ms.speedup < m_small.Ms.speedup);
  check "dram-bound near 1" true (m_huge.Ms.speedup < 1.6)

let test_reduction_vector_speedup () =
  (* Sums gain nearly VF: the latency chain splits across lanes. *)
  let vk = llv (kern "s311") in
  let m = Ms.measure ~noise_amp:0.0 M.neon_a57 ~n:32000 vk in
  check "sum speedup close to vf" true (m.Ms.speedup > 3.0)

let test_gather_not_profitable_on_neon () =
  let vk = llv (kern "vag") in
  let m = Ms.measure ~noise_amp:0.0 M.neon_a57 ~n:32000 vk in
  check "gather near or below 1" true (m.Ms.speedup < 1.3)

(* --- measurement ------------------------------------------------------------- *)

let test_noise_deterministic () =
  let f1 = Ms.noise_factor ~amp:0.03 ~seed:1 "s000" "neon-a57" in
  let f2 = Ms.noise_factor ~amp:0.03 ~seed:1 "s000" "neon-a57" in
  check "same inputs same factor" true (f1 = f2);
  let f3 = Ms.noise_factor ~amp:0.03 ~seed:2 "s000" "neon-a57" in
  check "seed changes factor" true (f1 <> f3);
  check "bounded" true (abs_float (f1 -. 1.0) <= 0.03 +. 1e-9)

let test_measure_noise_scale () =
  let vk = llv (kern "s000") in
  let m0 = Ms.measure ~noise_amp:0.0 M.neon_a57 ~n:32000 vk in
  let m3 = Ms.measure ~noise_amp:0.03 M.neon_a57 ~n:32000 vk in
  check "clean equals clean" true (m0.Ms.speedup = m0.Ms.speedup_clean);
  check "noisy within 3%" true
    (abs_float ((m3.Ms.speedup /. m3.Ms.speedup_clean) -. 1.0) <= 0.031)

let test_total_cycles_scale_with_n () =
  let k = kern "s000" in
  let c n = Ms.total_scalar_cycles M.neon_a57 ~n k in
  check "8x iterations at least 4x cycles" true (c 32000 >= 4.0 *. c 4000)

let test_epilogue_accounted () =
  let vk = llv (kern "s000") in
  (* n = vf*k + 3 leaves a scalar tail; total vector cycles must exceed the
     pure block cost. *)
  let n = 4003 in
  let blocks = float_of_int (n / 4) in
  let vest = S.vector_estimate M.neon_a57 ~n vk in
  let total = Ms.total_vector_cycles M.neon_a57 ~n vk in
  check "epilogue + setup add cycles" true
    (total > blocks *. vest.S.cycles)

let tests =
  [ Alcotest.test_case "vf_for_kernel" `Quick test_vf_for_kernel;
    Alcotest.test_case "machine lookup" `Quick test_machine_lookup;
    Alcotest.test_case "level selection" `Quick test_level_selection;
    Alcotest.test_case "no l3 on a57" `Quick test_no_l3_machine;
    Alcotest.test_case "effective bytes" `Quick test_effective_bytes;
    Alcotest.test_case "bandwidth ordering" `Quick test_bandwidth_ordering;
    Alcotest.test_case "estimates positive" `Quick test_estimates_positive;
    Alcotest.test_case "more work costs more" `Quick test_more_work_costs_more;
    Alcotest.test_case "division expensive" `Quick test_division_expensive;
    Alcotest.test_case "reduction latency bound" `Quick test_reduction_latency_bound;
    Alcotest.test_case "memdep recurrence" `Quick test_memdep_recurrence_bound;
    Alcotest.test_case "speedups sane" `Slow test_vector_estimate_speedup_bounds;
    Alcotest.test_case "memory-bound flat" `Quick test_memory_bound_kernel_flat;
    Alcotest.test_case "reduction speedup" `Quick test_reduction_vector_speedup;
    Alcotest.test_case "gather unprofitable" `Quick test_gather_not_profitable_on_neon;
    Alcotest.test_case "noise deterministic" `Quick test_noise_deterministic;
    Alcotest.test_case "noise scale" `Quick test_measure_noise_scale;
    Alcotest.test_case "cycles scale with n" `Quick test_total_cycles_scale_with_n;
    Alcotest.test_case "epilogue accounted" `Quick test_epilogue_accounted ]

(* --- machine description files -------------------------------------------- *)

module Cfg = Vmachine.Config

let op_tables_equal (a : D.t) (b : D.t) =
  List.for_all
    (fun cls ->
      List.for_all
        (fun ty ->
          a.D.scalar_op cls ty = b.D.scalar_op cls ty
          && a.D.vector_op cls ty = b.D.vector_op cls ty)
        Vir.Types.all)
    Vmachine.Opclass.all

let test_config_roundtrip () =
  List.iter
    (fun m ->
      match Cfg.of_string (Cfg.to_string m) with
      | Error e -> Alcotest.failf "%s: %s" m.D.name e
      | Ok m' ->
          check (m.D.name ^ " scalar fields") true
            (m'.D.name = m.D.name && m'.D.vector_bits = m.D.vector_bits
            && m'.D.issue_width = m.D.issue_width
            && m'.D.inorder = m.D.inorder && m'.D.units = m.D.units
            && m'.D.gather = m.D.gather && m'.D.mem = m.D.mem
            && m'.D.loop_uops = m.D.loop_uops
            && m'.D.vec_setup_cycles = m.D.vec_setup_cycles);
          check (m.D.name ^ " op tables") true (op_tables_equal m m'))
    M.all

let test_config_roundtrip_estimates () =
  (* The rebuilt machine produces identical cycle estimates. *)
  let m = M.neon_a57 in
  let m' = Result.get_ok (Cfg.of_string (Cfg.to_string m)) in
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let a = (S.scalar_estimate m ~n:32000 e.kernel).S.cycles in
      let b = (S.scalar_estimate m' ~n:32000 e.kernel).S.cycles in
      check (e.kernel.Kernel.name ^ " same estimate") true (a = b))
    Tsvc.Registry.all

let test_config_rejects_garbage () =
  check "garbage" true (Result.is_error (Cfg.of_string "nonsense"));
  check "missing table" true
    (Result.is_error
       (Cfg.of_string "vecmodel-machine v1\nname x\nvector-bits 128\n"))

let test_config_rejects_truncated () =
  let s = Cfg.to_string M.neon_a57 in
  (* Drop the last 40 lines: the op table becomes incomplete. *)
  let lines = String.split_on_char '\n' s in
  let keep = List.length lines - 40 in
  let truncated =
    String.concat "\n" (List.filteri (fun i _ -> i < keep) lines)
  in
  check "incomplete table rejected" true (Result.is_error (Cfg.of_string truncated))

let config_tests =
  [ Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
    Alcotest.test_case "config estimates" `Quick test_config_roundtrip_estimates;
    Alcotest.test_case "config garbage" `Quick test_config_rejects_garbage;
    Alcotest.test_case "config truncated" `Quick test_config_rejects_truncated ]

let tests = tests @ config_tests
