(* Integration tests for the documented example scenarios: each claim the
   examples and README make is asserted here at reduced problem sizes, so
   the walkthroughs cannot silently rot. *)

open Costmodel

let check = Alcotest.(check bool)

let n = 8000
let cfg = { Experiment.default_config with n }

(* --- quickstart: a custom kernel end to end ------------------------------- *)

let test_quickstart_flow () =
  let open Vir in
  let b = Builder.make "qs" ~descr:"a[i] = sqrt(b[i])*s + c[i]" in
  let i = Builder.loop b "i" Kernel.Tn in
  let s = Builder.param b "s" in
  let root = Builder.sqrtf b (Builder.load b "b" [ Builder.ix i ]) in
  let v = Builder.fma b root s (Builder.load b "c" [ Builder.ix i ]) in
  Builder.store b "a" [ Builder.ix i ] v;
  let k = Builder.finish b in
  Validate.check_exn k;
  check "bounds safe" true (Bounds.check k = []);
  check "legal" true (Vdeps.Dependence.vectorizable k);
  let vk = Result.get_ok (Vvect.Llv.vectorize ~vf:4 k) in
  let rs = Vinterp.Interp.run ~n:500 k in
  let rv = Vvect.Vexec.run ~n:500 vk in
  check "semantics preserved" true
    (Vinterp.Env.snapshot rs.Vinterp.Interp.env
    = Vinterp.Env.snapshot rv.Vinterp.Interp.env);
  let machine = Vmachine.Machines.neon_a57 in
  let m = Vmachine.Measure.measure machine ~n vk in
  check "profitable" true (m.Vmachine.Measure.speedup > 1.2);
  (* The fitted model should predict this sqrt-heavy loop better than the
     baseline's flat VF-ish estimate. *)
  let training = Experiment.samples ~config:cfg ~machine ~transform:Dataset.Llv () in
  let model =
    Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated
      ~target:Linmodel.Speedup training
  in
  let sample =
    List.hd
      (Dataset.build ~machine ~transform:Dataset.Llv ~n
         [ { Tsvc.Registry.category = Tsvc.Category.Vector_basics; kernel = k } ])
  in
  let fitted_err = abs_float (Linmodel.predict model sample -. sample.measured) in
  let baseline_err = abs_float (sample.baseline -. sample.measured) in
  check "fitted estimate closer than baseline" true (fitted_err < baseline_err)

(* --- vectorize_or_not: the size crossover ----------------------------------- *)

let test_size_crossover () =
  let machine = Vmachine.Machines.neon_a57 in
  let k = (Tsvc.Registry.find_exn "s000").kernel in
  let vk = Result.get_ok (Vvect.Llv.vectorize ~vf:4 k) in
  let speedup n =
    (Vmachine.Measure.measure ~noise_amp:0.0 machine ~n vk)
      .Vmachine.Measure.speedup
  in
  check "cache-resident beats DRAM-bound" true
    (speedup 1000 > speedup 4_000_000 +. 0.5);
  check "compute-heavy kernel immune" true
    (let kb = (Tsvc.Registry.find_exn "vbor").kernel in
     let vkb = Result.get_ok (Vvect.Llv.vectorize ~vf:4 kb) in
     let s n =
       (Vmachine.Measure.measure ~noise_amp:0.0 machine ~n vkb)
         .Vmachine.Measure.speedup
     in
     s 4_000_000 > 0.55 *. s 1000)

(* --- cross_target: per-target fitting --------------------------------------- *)

let test_cross_target_diagonal () =
  let fit machine =
    let s = Experiment.samples ~config:cfg ~machine ~transform:Dataset.Llv () in
    ( s,
      Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated
        ~target:Linmodel.Speedup s )
  in
  let s_arm, m_arm = fit Vmachine.Machines.neon_a57 in
  let s_x86, m_x86 = fit Vmachine.Machines.xeon_avx2 in
  let r model samples =
    (Metrics.evaluate ~predicted:(Linmodel.predict_all model samples) samples)
      .Metrics.pearson
  in
  check "arm model best on arm" true (r m_arm s_arm > r m_x86 s_arm);
  check "x86 model best on x86" true (r m_x86 s_x86 > r m_arm s_x86)

(* --- synth_training: more data helps out of distribution --------------------- *)

let test_synth_training_helps () =
  let machine = Vmachine.Machines.neon_a57 in
  let entries ks =
    List.map
      (fun k -> { Tsvc.Registry.category = Tsvc.Category.Vector_basics; kernel = k })
      ks
  in
  let build ks = Dataset.build ~machine ~transform:Dataset.Llv ~n (entries ks) in
  let test_set = build (Vsynth.Generator.batch ~count:60 9000) in
  let tsvc = Experiment.samples ~config:cfg ~machine ~transform:Dataset.Llv () in
  let synth = build (Vsynth.Generator.batch ~count:80 100) in
  let fit s =
    Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated
      ~target:Linmodel.Speedup s
  in
  let r model =
    (Metrics.evaluate ~predicted:(Linmodel.predict_all model test_set) test_set)
      .Metrics.pearson
  in
  check "augmented training at least as good" true
    (r (fit (tsvc @ synth)) >= r (fit tsvc) -. 0.02)

(* --- design_space: machines as data ------------------------------------------ *)

let test_design_space_bandwidth_lever () =
  let base = Vmachine.Machines.neon_a57 in
  let wide_mem =
    { base with
      Vmachine.Descr.name = "test-2xmem";
      mem =
        { base.Vmachine.Descr.mem with
          Vmachine.Descr.l2_bw = 2.0 *. base.Vmachine.Descr.mem.Vmachine.Descr.l2_bw } }
  in
  let geo machine =
    let s = Experiment.samples ~config:cfg ~machine ~transform:Dataset.Llv () in
    Vstats.Descriptive.geomean (Dataset.measured_array s)
  in
  check "more bandwidth, more vector speedup" true (geo wide_mem > geo base)

(* --- trip-count corners (Tconst / Tn2_minus / strided) ------------------------ *)

let test_trip_corners () =
  let open Vir in
  (* Tconst: fixed iteration count regardless of n. *)
  let b = Builder.make "tc" in
  let i = Builder.loop b "i" (Kernel.Tconst 7) in
  Builder.store b "a" [ Builder.ix i ] (Builder.cf 5.0);
  let k = Builder.finish b in
  let r = Vinterp.Interp.run ~n:64 k in
  let a = List.assoc "a" (Vinterp.Env.snapshot r.Vinterp.Interp.env) in
  check "exactly 7 writes" true
    (Array.for_all
       (fun idx -> (a.(idx) = 5.0) = (idx < 7))
       (Array.init 32 Fun.id));
  (* Tn2_minus: interior loops stop one short. *)
  check "interior trip" true
    (Kernel.trip_bound ~n:64 (Kernel.Tn2_minus 1) = 7);
  (* Strided loop iteration counts. *)
  let l = { Kernel.var = "i"; trip = Kernel.Tn; start = 2; step = 3 } in
  check "ceil division" true (Kernel.iterations ~n:10 l = 3)

let tests =
  [ Alcotest.test_case "quickstart flow" `Slow test_quickstart_flow;
    Alcotest.test_case "size crossover" `Quick test_size_crossover;
    Alcotest.test_case "cross-target diagonal" `Slow test_cross_target_diagonal;
    Alcotest.test_case "synth training" `Slow test_synth_training_helps;
    Alcotest.test_case "design space lever" `Slow test_design_space_bandwidth_lever;
    Alcotest.test_case "trip corners" `Quick test_trip_corners ]
