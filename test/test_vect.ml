(* Tests for the vectorizers: LLV, SLP and the unroller.  The central
   property: transformed kernels compute exactly the same memory state as
   the scalar reference (and the same reductions up to reassociation). *)

open Vir
module B = Builder
module I = Vinterp.Interp
module Env = Vinterp.Env

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mem_equal env1 env2 = Env.snapshot env1 = Env.snapshot env2

let red_equal r1 r2 =
  List.for_all2
    (fun (n1, v1) (n2, v2) ->
      n1 = n2
      && (v1 = v2
          || abs_float (v1 -. v2)
             <= 1e-4 *. (abs_float v1 +. abs_float v2 +. 1.0)))
    r1 r2

let assert_equiv ?(n = 173) name (k : Kernel.t) (vk : Vvect.Vinstr.vkernel) =
  let rs = I.run ~n k in
  let rv = Vvect.Vexec.run ~n vk in
  check (name ^ ": memory identical") true (mem_equal rs.I.env rv.I.env);
  check (name ^ ": reductions match") true
    (red_equal rs.I.reductions rv.I.reductions)

let llv ?(vf = 4) k =
  match Vvect.Llv.vectorize ~vf k with
  | Ok vk -> vk
  | Error e -> Alcotest.failf "LLV failed: %s" (Vvect.Llv.error_to_string e)

let slp ?(vf = 4) k =
  match Vvect.Slp.vectorize ~vf k with
  | Ok vk -> vk
  | Error e -> Alcotest.failf "SLP failed: %s" (Vvect.Slp.error_to_string e)

(* --- LLV structure --------------------------------------------------------- *)

let test_llv_rejects_vf1 () =
  let k = (Tsvc.Registry.find_exn "s000").kernel in
  check "vf 1 rejected" true (Result.is_error (Vvect.Llv.vectorize ~vf:1 k))

let test_llv_rejects_illegal () =
  let k = (Tsvc.Registry.find_exn "s321").kernel in
  check "recurrence rejected" true
    (match Vvect.Llv.vectorize ~vf:4 k with
    | Error (Vvect.Llv.Not_legal _) -> true
    | Error _ | Ok _ -> false)

let test_llv_respects_distance () =
  let k = (Tsvc.Registry.find_exn "s1221").kernel in
  check "vf 4 ok at distance 4" true (Result.is_ok (Vvect.Llv.vectorize ~vf:4 k));
  check "vf 8 rejected" true (Result.is_error (Vvect.Llv.vectorize ~vf:8 k))

let test_llv_emits_gather () =
  let vk = llv (Tsvc.Registry.find_exn "vag").kernel in
  check "gather instruction present" true
    (List.exists
       (function Vvect.Vinstr.Vgather _ -> true | _ -> false)
       vk.Vvect.Vinstr.vbody)

let test_llv_emits_reverse () =
  let vk = llv (Tsvc.Registry.find_exn "s1112").kernel in
  check "reverse access classified" true
    (List.exists
       (function
         | Vvect.Vinstr.Vload { access = Vvect.Vinstr.Rev; _ } -> true
         | _ -> false)
       vk.Vvect.Vinstr.vbody)

let test_llv_emits_strided () =
  let vk = llv (Tsvc.Registry.find_exn "s127").kernel in
  check "stride-2 store classified" true
    (List.exists
       (function
         | Vvect.Vinstr.Vstore { access = Vvect.Vinstr.Strided 2; _ } -> true
         | _ -> false)
       vk.Vvect.Vinstr.vbody)

let test_llv_row_access () =
  let vk = llv (Tsvc.Registry.find_exn "s2101").kernel in
  check "diagonal walks rows" true
    (List.exists
       (function
         | Vvect.Vinstr.Vstore { access = Vvect.Vinstr.Row; _ } -> true
         | _ -> false)
       vk.Vvect.Vinstr.vbody)

let test_llv_iota_emitted_once () =
  let vk = llv (Tsvc.Registry.find_exn "s452").kernel in
  check_int "single iota" 1
    (List.length
       (List.filter
          (function Vvect.Vinstr.Viota _ -> true | _ -> false)
          vk.Vvect.Vinstr.vbody))

let test_llv_reductions_carried () =
  let vk = llv (Tsvc.Registry.find_exn "s313").kernel in
  check_int "one vector reduction" 1 (List.length vk.Vvect.Vinstr.vreductions)

(* --- LLV semantics: the whole suite, several sizes, several VFs ------------ *)

let llv_equiv_all ~vf ~n () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      match Vvect.Llv.vectorize ~vf e.kernel with
      | Error _ -> ()
      | Ok vk -> assert_equiv ~n e.kernel.Kernel.name e.kernel vk)
    Tsvc.Registry.all

let test_llv_equiv_vf4_prime () = llv_equiv_all ~vf:4 ~n:173 ()
let test_llv_equiv_vf4_pow2 () = llv_equiv_all ~vf:4 ~n:256 ()
let test_llv_equiv_vf2 () = llv_equiv_all ~vf:2 ~n:97 ()
let test_llv_equiv_vf8 () = llv_equiv_all ~vf:8 ~n:130 ()

(* Epilogue correctness: sizes that leave 1..vf-1 leftover iterations. *)
let test_llv_epilogue_sizes () =
  let k = (Tsvc.Registry.find_exn "s000").kernel in
  List.iter
    (fun n -> assert_equiv ~n "s000" k (llv k))
    [ 64; 65; 66; 67; 68 ]

(* --- SLP -------------------------------------------------------------------- *)

(* Reduction loops used to be a blanket [Has_reductions] refusal; the
   idiom tag now admits them, the accumulator source seeds the pack tree,
   and the horizontal combine survives as a [vreduction]. *)
let test_slp_vectorizes_reductions () =
  let k = (Tsvc.Registry.find_exn "s311").kernel in
  let vk = slp k in
  check_int "one vector reduction" 1 (List.length vk.Vvect.Vinstr.vreductions);
  assert_equiv "s311 slp" k vk;
  (* A reduction alongside a packed store keeps both sinks. *)
  let k2 = (Tsvc.Registry.find_exn "s312").kernel in
  assert_equiv "s312 slp" k2 (slp k2)

let test_slp_needs_contiguous_seed () =
  (* Only store is a scatter: no seed. *)
  let k = (Tsvc.Registry.find_exn "vas").kernel in
  check "no contiguous store" true
    (match Vvect.Slp.vectorize ~vf:4 k with
    | Error Vvect.Slp.No_seed -> true
    | Error _ | Ok _ -> false)

let test_slp_scalarizes_gather () =
  let vk = slp (Tsvc.Registry.find_exn "vag").kernel in
  let sc_loads =
    List.length
      (List.filter
         (function
           | Vvect.Vinstr.Sc { instr = Instr.Load _; _ } -> true
           | _ -> false)
         vk.Vvect.Vinstr.vbody)
  in
  check "gather scalarized into vf lane loads" true (sc_loads >= 4);
  check "packs emitted" true
    (List.exists
       (function Vvect.Vinstr.Vpack _ -> true | _ -> false)
       vk.Vvect.Vinstr.vbody)

let test_slp_packs_contiguous () =
  let vk = slp (Tsvc.Registry.find_exn "s000").kernel in
  check "fully packed: no scalar leftovers" true
    (List.for_all
       (function Vvect.Vinstr.Sc _ -> false | _ -> true)
       vk.Vvect.Vinstr.vbody)

let slp_equiv_all ~vf ~n () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      match Vvect.Slp.vectorize ~vf e.kernel with
      | Error _ -> ()
      | Ok vk -> assert_equiv ~n e.kernel.Kernel.name e.kernel vk)
    Tsvc.Registry.all

let test_slp_equiv_vf4 () = slp_equiv_all ~vf:4 ~n:173 ()
let test_slp_equiv_vf8 () = slp_equiv_all ~vf:8 ~n:137 ()

(* --- unroller ----------------------------------------------------------------- *)

let test_unroll_structure () =
  let k = (Tsvc.Registry.find_exn "s000").kernel in
  let u = Vvect.Unroll.by 4 k in
  Validate.check_exn u;
  check_int "body replicated" (4 * List.length k.Kernel.body)
    (List.length u.Kernel.body);
  check_int "step widened" 4 (Kernel.innermost u).Kernel.step

let test_unroll_equiv () =
  (* Divisible trip counts: unrolled kernel computes the same state. *)
  List.iter
    (fun name ->
      let k = (Tsvc.Registry.find_exn name).kernel in
      List.iter
        (fun uf ->
          if Vvect.Unroll.exact_for ~n:128 k uf then begin
            let u = Vvect.Unroll.by uf k in
            Validate.check_exn u;
            let rs = I.run ~n:128 k in
            let ru = I.run ~n:128 u in
            check
              (Printf.sprintf "%s unroll %d memory" name uf)
              true
              (mem_equal rs.I.env ru.I.env)
          end)
        [ 2; 4 ])
    [ "s000"; "va"; "vpvtv"; "s271"; "s1112"; "s452"; "vag" ]

let test_unroll_reduction_equiv () =
  let k = (Tsvc.Registry.find_exn "s313").kernel in
  let u = Vvect.Unroll.by 4 k in
  Validate.check_exn u;
  let rs = I.run ~n:128 k in
  let ru = I.run ~n:128 u in
  check "dot product after unrolling" true (red_equal rs.I.reductions ru.I.reductions)

let test_unroll_rejects_uf1 () =
  let k = (Tsvc.Registry.find_exn "s000").kernel in
  Alcotest.check_raises "uf 1" (Invalid_argument "Unroll.by: factor must be >= 2")
    (fun () -> ignore (Vvect.Unroll.by 1 k))

(* --- property tests over generated kernels ----------------------------------- *)

let synth_pipeline_prop transform_name transform =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "generated kernels: %s preserves semantics" transform_name)
    QCheck.(int_bound 10_000)
    (fun seed ->
      let k = Vsynth.Generator.kernel seed in
      if Validate.errors k <> [] then false
      else
        match transform k with
        | None -> true (* transform not applicable: fine *)
        | Some vk ->
            let rs = I.run ~n:101 k in
            let rv = Vvect.Vexec.run ~n:101 vk in
            mem_equal rs.I.env rv.I.env && red_equal rs.I.reductions rv.I.reductions)

let prop_llv =
  synth_pipeline_prop "llv" (fun k ->
      match Vvect.Llv.vectorize ~vf:4 k with Ok v -> Some v | Error _ -> None)

let prop_slp =
  synth_pipeline_prop "slp" (fun k ->
      match Vvect.Slp.vectorize ~vf:4 k with Ok v -> Some v | Error _ -> None)

let prop_synth_valid =
  QCheck.Test.make ~count:200 ~name:"generated kernels validate and stay in bounds"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let k = Vsynth.Generator.kernel seed in
      Validate.errors k = [] && Bounds.check k = [])

let tests =
  [ Alcotest.test_case "llv rejects vf 1" `Quick test_llv_rejects_vf1;
    Alcotest.test_case "llv rejects illegal" `Quick test_llv_rejects_illegal;
    Alcotest.test_case "llv distance limit" `Quick test_llv_respects_distance;
    Alcotest.test_case "llv gather" `Quick test_llv_emits_gather;
    Alcotest.test_case "llv reverse" `Quick test_llv_emits_reverse;
    Alcotest.test_case "llv strided" `Quick test_llv_emits_strided;
    Alcotest.test_case "llv row access" `Quick test_llv_row_access;
    Alcotest.test_case "llv iota once" `Quick test_llv_iota_emitted_once;
    Alcotest.test_case "llv reductions" `Quick test_llv_reductions_carried;
    Alcotest.test_case "llv equiv vf4 prime" `Slow test_llv_equiv_vf4_prime;
    Alcotest.test_case "llv equiv vf4 pow2" `Slow test_llv_equiv_vf4_pow2;
    Alcotest.test_case "llv equiv vf2" `Slow test_llv_equiv_vf2;
    Alcotest.test_case "llv equiv vf8" `Slow test_llv_equiv_vf8;
    Alcotest.test_case "llv epilogue sizes" `Quick test_llv_epilogue_sizes;
    Alcotest.test_case "slp vectorizes reductions" `Quick
      test_slp_vectorizes_reductions;
    Alcotest.test_case "slp needs seed" `Quick test_slp_needs_contiguous_seed;
    Alcotest.test_case "slp scalarizes gather" `Quick test_slp_scalarizes_gather;
    Alcotest.test_case "slp packs contiguous" `Quick test_slp_packs_contiguous;
    Alcotest.test_case "slp equiv vf4" `Slow test_slp_equiv_vf4;
    Alcotest.test_case "slp equiv vf8" `Slow test_slp_equiv_vf8;
    Alcotest.test_case "unroll structure" `Quick test_unroll_structure;
    Alcotest.test_case "unroll equivalence" `Quick test_unroll_equiv;
    Alcotest.test_case "unroll reduction" `Quick test_unroll_reduction_equiv;
    Alcotest.test_case "unroll uf 1" `Quick test_unroll_rejects_uf1;
    QCheck_alcotest.to_alcotest prop_synth_valid;
    QCheck_alcotest.to_alcotest prop_llv;
    QCheck_alcotest.to_alcotest prop_slp ]

(* --- adversarial soundness: legality verdict must imply equivalence ------- *)

(* The strongest contract in the pipeline: whenever [Vdeps] declares a width
   legal for a dependence-stress kernel, the widened execution must produce
   bit-identical memory. A bug in either the subscript tests or the
   transforms shows up here. *)
let soundness_prop name vf transform =
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "dependence-stress: legal %s at vf %d is sound" name vf)
    QCheck.(int_bound 50_000)
    (fun seed ->
      let k = Vsynth.Generator.dep_kernel seed in
      if Validate.errors k <> [] then false
      else if not (Vdeps.Dependence.legal_for_vf k vf) then true
      else
        match transform ~vf k with
        | None -> true
        | Some vk ->
            let rs = I.run ~n:97 k in
            let rv = Vvect.Vexec.run ~n:97 vk in
            mem_equal rs.I.env rv.I.env)

let llv_opt ~vf k =
  match Vvect.Llv.vectorize ~vf k with Ok v -> Some v | Error _ -> None

let slp_opt ~vf k =
  match Vvect.Slp.vectorize ~vf k with Ok v -> Some v | Error _ -> None

let prop_sound_llv2 = soundness_prop "llv" 2 llv_opt
let prop_sound_llv4 = soundness_prop "llv" 4 llv_opt
let prop_sound_llv8 = soundness_prop "llv" 8 llv_opt
let prop_sound_slp4 = soundness_prop "slp" 4 slp_opt

(* Sanity: the stress generator must actually produce both verdicts, or the
   soundness property would be vacuous. *)
let test_stress_generator_mixed () =
  let seeds = List.init 200 Fun.id in
  let verdicts =
    List.map (fun s -> Vdeps.Dependence.vectorizable (Vsynth.Generator.dep_kernel s)) seeds
  in
  check "some legal" true (List.exists Fun.id verdicts);
  check "some illegal" true (List.exists not verdicts)

let soundness_tests =
  [ Alcotest.test_case "stress generator mixed" `Quick test_stress_generator_mixed;
    QCheck_alcotest.to_alcotest prop_sound_llv2;
    QCheck_alcotest.to_alcotest prop_sound_llv4;
    QCheck_alcotest.to_alcotest prop_sound_llv8;
    QCheck_alcotest.to_alcotest prop_sound_slp4 ]

let tests = tests @ soundness_tests

(* --- pseudo-assembly emitter -------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_emit_scalar_neon () =
  let s = Vvect.Emit.scalar (Tsvc.Registry.find_exn "s000").kernel in
  check "loads rendered" true (contains s "ldr");
  check "add rendered" true (contains s "fadd");
  check "store rendered" true (contains s "str");
  check "loop label" true (contains s ".loop_i")

let test_emit_scalar_avx () =
  let s =
    Vvect.Emit.scalar ~style:Vvect.Emit.Avx (Tsvc.Registry.find_exn "s000").kernel
  in
  check "avx load" true (contains s "movss");
  check "avx add" true (contains s "vaddps")

let test_emit_vector_contig () =
  let s = Vvect.Emit.vector (llv (Tsvc.Registry.find_exn "s000").kernel) in
  check "wide load" true (contains s "ld1");
  check "lane arrangement" true (contains s ".4s");
  check "epilogue note" true (contains s "epilogue")

let test_emit_vector_gather () =
  let s = Vvect.Emit.vector (llv (Tsvc.Registry.find_exn "vag").kernel) in
  check "neon gather is scalarized" true (contains s "scalar ldr");
  let s2 =
    Vvect.Emit.vector ~style:Vvect.Emit.Avx
      (llv (Tsvc.Registry.find_exn "vag").kernel)
  in
  check "avx native gather" true (contains s2 "vgatherdps")

let test_emit_vector_reduction () =
  let s = Vvect.Emit.vector (llv (Tsvc.Registry.find_exn "s313").kernel) in
  check "vector accumulator" true (contains s "vacc_dot");
  check "horizontal note" true (contains s "horizontal reduction")

let test_emit_slp_has_copies () =
  let s = Vvect.Emit.vector (slp (Tsvc.Registry.find_exn "vag").kernel) in
  check "scalar copies annotated" true (contains s "scalar copy")

let emit_tests =
  [ Alcotest.test_case "emit scalar neon" `Quick test_emit_scalar_neon;
    Alcotest.test_case "emit scalar avx" `Quick test_emit_scalar_avx;
    Alcotest.test_case "emit vector contig" `Quick test_emit_vector_contig;
    Alcotest.test_case "emit vector gather" `Quick test_emit_vector_gather;
    Alcotest.test_case "emit vector reduction" `Quick test_emit_vector_reduction;
    Alcotest.test_case "emit slp copies" `Quick test_emit_slp_has_copies ]

let tests = tests @ emit_tests

(* --- interleaving --------------------------------------------------------- *)

let llv_ic ~vf ~ic k =
  match Vvect.Llv.vectorize ~vf ~ic k with
  | Ok vk -> vk
  | Error e -> Alcotest.failf "LLV ic failed: %s" (Vvect.Llv.error_to_string e)

let test_ic_equivalence () =
  (* Interleaved execution must still match the scalar reference. *)
  List.iter
    (fun name ->
      let k = (Tsvc.Registry.find_exn name).kernel in
      List.iter
        (fun ic -> assert_equiv ~n:173 (name ^ "@ic") k (llv_ic ~vf:4 ~ic k))
        [ 1; 2; 4 ])
    [ "s000"; "s311"; "s313"; "vag"; "s1112"; "s452" ]

let test_ic_legality_span () =
  (* s1221 has distance 4: vf 2 * ic 2 = span 4 is legal, span 8 is not. *)
  let k = (Tsvc.Registry.find_exn "s1221").kernel in
  check "vf2 ic2 legal" true (Result.is_ok (Vvect.Llv.vectorize ~vf:2 ~ic:2 k));
  check "vf2 ic4 illegal" true
    (Result.is_error (Vvect.Llv.vectorize ~vf:2 ~ic:4 k));
  check "vf4 ic2 illegal" true
    (Result.is_error (Vvect.Llv.vectorize ~vf:4 ~ic:2 k))

let test_ic_speeds_up_reductions () =
  (* Scalar sums are latency-bound; interleaving splits the chain across
     accumulators. *)
  let machine = Vmachine.Machines.neon_a57 in
  let k = (Tsvc.Registry.find_exn "s313").kernel in
  let speedup ic =
    let vk = llv_ic ~vf:4 ~ic k in
    (Vmachine.Measure.measure ~noise_amp:0.0 machine ~n:2000 vk)
      .Vmachine.Measure.speedup
  in
  check "ic 2 beats ic 1 on a reduction" true (speedup 2 > speedup 1 *. 1.2)

let test_ic_no_effect_on_throughput_bound () =
  (* A unit-pressure-bound kernel gains nothing from more accumulators. *)
  let machine = Vmachine.Machines.neon_a57 in
  let k = (Tsvc.Registry.find_exn "vbor").kernel in
  let speedup ic =
    let vk = llv_ic ~vf:4 ~ic k in
    (Vmachine.Measure.measure ~noise_amp:0.0 machine ~n:2000 vk)
      .Vmachine.Measure.speedup
  in
  check "within 10%" true (abs_float (speedup 2 -. speedup 1) < 0.1 *. speedup 1)

let ic_tests =
  [ Alcotest.test_case "ic equivalence" `Quick test_ic_equivalence;
    Alcotest.test_case "ic legality span" `Quick test_ic_legality_span;
    Alcotest.test_case "ic reduction speedup" `Quick test_ic_speeds_up_reductions;
    Alcotest.test_case "ic throughput-bound" `Quick test_ic_no_effect_on_throughput_bound ]

let tests = tests @ ic_tests

(* --- loop interchange ------------------------------------------------------ *)

module Ix = Vvect.Interchange

let test_interchange_rejects_1d () =
  let k = (Tsvc.Registry.find_exn "s000").kernel in
  check "1-d refused" true (Ix.apply k = Error Ix.Not_two_level)

let test_interchange_swaps_loops () =
  let k = (Tsvc.Registry.find_exn "s1232").kernel in
  match Ix.apply k with
  | Error _ -> Alcotest.fail "should be legal"
  | Ok k' ->
      check "loops swapped" true
        (Vir.Kernel.loop_vars k' = List.rev (Vir.Kernel.loop_vars k));
      check "semantics preserved" true
        (let r1 = I.run ~n:400 k and r2 = I.run ~n:400 k' in
         Env.snapshot r1.I.env = Env.snapshot r2.I.env)

let test_interchange_unlocks_s232 () =
  let k = (Tsvc.Registry.find_exn "s232").kernel in
  check "serial as written" false (Vdeps.Dependence.vectorizable k);
  match Ix.enable_vectorization k with
  | None -> Alcotest.fail "s232 should unlock"
  | Some k' ->
      check "vectorizable after interchange" true (Vdeps.Dependence.vectorizable k');
      (* And the whole chain stays sound: interchange + vectorize = scalar. *)
      let vk = llv k' in
      let r1 = I.run ~n:400 k in
      let r2 = Vvect.Vexec.run ~n:400 vk in
      check "interchange + llv semantics" true
        (Env.snapshot r1.I.env = Env.snapshot r2.I.env)

let test_interchange_wavefront_legal_but_serial () =
  (* s2111: dependences (1,0) and (0,1); interchange is legal but the nest
     stays serial in both orders. *)
  let k = (Tsvc.Registry.find_exn "s2111").kernel in
  check "legal" true (Ix.legal k = Ok ());
  check "does not unlock" true (Ix.enable_vectorization k = None)

let test_interchange_refuses_coupled () =
  (* s114 transposes subscripts (aa[i][j] vs aa[j][i]): the old separable
     test bailed out; the Banerjee direction enumeration now proves the
     (<,>) vector feasible, so the refusal names the real reason. *)
  let k = (Tsvc.Registry.find_exn "s114").kernel in
  check "coupled subscripts carry a (<,>) vector" true
    (match Ix.legal k with
    | Error (Ix.Illegal_direction _) -> true
    | _ -> false)

let test_interchange_semantics_all_2d () =
  (* Wherever interchange claims legality, interpretation must agree. *)
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      if List.length e.kernel.Kernel.loops = 2 then
        match Ix.apply e.kernel with
        | Error _ -> ()
        | Ok k' ->
            let r1 = I.run ~n:401 e.kernel and r2 = I.run ~n:401 k' in
            check (e.kernel.Kernel.name ^ " interchange sound") true
              (Env.snapshot r1.I.env = Env.snapshot r2.I.env
              && red_equal r1.I.reductions r2.I.reductions))
    Tsvc.Registry.all

let interchange_tests =
  [ Alcotest.test_case "interchange 1-d" `Quick test_interchange_rejects_1d;
    Alcotest.test_case "interchange swaps" `Quick test_interchange_swaps_loops;
    Alcotest.test_case "interchange unlocks s232" `Quick test_interchange_unlocks_s232;
    Alcotest.test_case "interchange wavefront" `Quick test_interchange_wavefront_legal_but_serial;
    Alcotest.test_case "interchange refuses coupled" `Quick test_interchange_refuses_coupled;
    Alcotest.test_case "interchange sound on suite" `Slow test_interchange_semantics_all_2d ]

let tests = tests @ interchange_tests
