(* Tests for the extension work beyond the paper: the in-order little core,
   the extended feature set, and the typed kernel variants. *)

open Vir
module M = Vmachine.Machines
module D = Vmachine.Descr
module S = Vmachine.Sched
module Ms = Vmachine.Measure
open Costmodel

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let kern name = (Tsvc.Registry.find_exn name).kernel

(* --- in-order core ------------------------------------------------------- *)

let test_a53_is_inorder () =
  check "flag set" true M.cortex_a53.D.inorder;
  check "a57 is ooo" false M.neon_a57.D.inorder

let test_critical_path () =
  (* Chain of three ops at latency 2 each: path = 6. *)
  let body =
    [| Instr.Load
         { ty = Types.F32;
           addr = Instr.Affine { arr = "a"; dims = [ Instr.dim_const 0 ] } };
       Instr.Una { ty = Types.F32; op = Op.Neg; a = Instr.Reg 0 };
       Instr.Una { ty = Types.F32; op = Op.Neg; a = Instr.Reg 1 } |]
  in
  checkf "3-deep chain" 6.0 (S.critical_path ~op_lat:(fun _ -> 2.0) body)

let test_critical_path_parallel () =
  (* Two independent chains: path is the longer one, not the sum. *)
  let body =
    [| Instr.Load
         { ty = Types.F32;
           addr = Instr.Affine { arr = "a"; dims = [ Instr.dim_const 0 ] } };
       Instr.Load
         { ty = Types.F32;
           addr = Instr.Affine { arr = "b"; dims = [ Instr.dim_const 0 ] } };
       Instr.Bin { ty = Types.F32; op = Op.Add; a = Instr.Reg 0; b = Instr.Reg 1 } |]
  in
  let lat = function 2 -> 5.0 | _ -> 3.0 in
  checkf "join takes max" 8.0 (S.critical_path ~op_lat:lat body)

let test_inorder_slower_than_ooo () =
  (* Same latencies would apply, but the in-order core pays the chain. *)
  let k = kern "vbor" in
  let ci = (S.scalar_estimate M.cortex_a53 ~n:4000 k).S.cycles in
  let co = (S.scalar_estimate M.neon_a57 ~n:4000 k).S.cycles in
  check "in-order pays latency chains" true (ci > co)

let test_a53_all_kernels_estimable () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let est = S.scalar_estimate M.cortex_a53 ~n:32000 e.kernel in
      check (e.kernel.Kernel.name ^ " positive") true (est.S.cycles > 0.0))
    Tsvc.Registry.all

let test_a53_speedups_sane () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      match Vvect.Llv.vectorize ~vf:4 e.kernel with
      | Error _ -> ()
      | Ok vk ->
          let m = Ms.measure ~noise_amp:0.0 M.cortex_a53 ~n:32000 vk in
          check (e.kernel.Kernel.name ^ " sane") true
            (m.Ms.speedup > 0.05 && m.Ms.speedup < 8.0))
    Tsvc.Registry.all

(* --- extended features ----------------------------------------------------- *)

let test_extended_dim () =
  check_int "3 extra features" (Feature.dim + 3)
    (List.length Feature.extended_names)

let test_extended_values () =
  let f = Feature.extended (kern "s000") in
  check_int "vector length" (Feature.dim + 3) (Array.length f);
  (* s000: 1 add, 1 load, 1 store -> intensity = 1/(2+1). *)
  checkf "intensity" (1.0 /. 3.0) f.(Feature.dim);
  checkf "log size" (log 4.0) f.(Feature.dim + 1);
  checkf "no recurrence" 0.0 f.(Feature.dim + 2)

let test_extended_recurrence_feature () =
  let f1221 = Feature.extended (kern "s1221") in
  checkf "distance-4 flow -> 0.25" 0.25 f1221.(Feature.dim + 2);
  let f422 = Feature.extended (kern "s422") in
  checkf "anti deps don't count" 0.0 f422.(Feature.dim + 2)

let test_extended_intensity_orders_kernels () =
  let intensity name = (Feature.extended (kern name)).(Feature.dim) in
  check "vbor is compute-heavy" true (intensity "vbor" > intensity "va")

(* --- the one-pass feature product -------------------------------------------- *)

(* [short] is a proper prefix of [long], bit for bit. *)
let is_prefix short long =
  let n = Array.length short in
  n < Array.length long && compare short (Array.sub long 0 n) = 0

let test_feature_product_chains () =
  let n = Tsvc.Registry.default_n in
  List.iter
    (fun (m : D.t) ->
      List.iter
        (fun (e : Tsvc.Registry.entry) ->
          let k = e.kernel in
          let vf = D.vf_for_kernel m k in
          if vf >= 2 then begin
            let a = Feature.analyze ~n ~vf k in
            let f = Lazy.force in
            let tag what =
              Printf.sprintf "%s on %s at vf %d: %s" k.Kernel.name m.D.name vf
                what
            in
            List.iter
              (fun (what, v, names) ->
                check_int (tag what) (List.length names) (Array.length v))
              [ ("raw", f a.raw, Feature.names);
                ("norm_raw", f a.norm_raw, Feature.names);
                ("rated", f a.rated, Feature.names);
                ("extended", f a.extended, Feature.extended_names);
                ("absint", f a.absint, Feature.absint_names);
                ("opt", f a.opt, Feature.opt_names);
                ("deps", f a.deps, Feature.deps_names);
                ("cert", f a.cert, Feature.cert_names) ];
            List.iter
              (fun (what, short, long) -> check (tag what) true (is_prefix short long))
              [ ("rated prefixes extended", f a.rated, f a.extended);
                ("extended prefixes absint", f a.extended, f a.absint);
                ("opt prefixes deps", f a.opt, f a.deps);
                ("deps prefixes cert", f a.deps, f a.cert) ];
            (* The fields no standalone function derives from the product. *)
            check (tag "raw is counts") true (compare (f a.raw) (Feature.counts k) = 0);
            check (tag "extended is Feature.extended") true
              (compare (f a.extended) (Feature.extended k) = 0)
          end)
        (Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries))
    M.all

(* --- typed variants ---------------------------------------------------------- *)

let test_typed_extension_size () =
  check_int "15 typed variants" 15 (List.length Tsvc.Registry.typed_extension)

let test_typed_all_valid () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      match Validate.errors e.kernel with
      | [] -> ()
      | errs ->
          Alcotest.failf "%s invalid: %s" e.kernel.Kernel.name
            (String.concat "; " errs))
    Tsvc.Registry.typed_extension

let test_typed_names_disjoint_from_base () =
  let base = List.map (fun k -> k.Kernel.name) Tsvc.Registry.kernels in
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      check (e.kernel.Kernel.name ^ " not in base") false
        (List.mem e.kernel.Kernel.name base))
    Tsvc.Registry.typed_extension

let test_typed_f64_narrower_vf () =
  let e =
    List.find
      (fun (e : Tsvc.Registry.entry) -> e.kernel.Kernel.name = "s000_f64")
      Tsvc.Registry.typed_extension
  in
  check_int "f64 gets VF 2 on NEON" 2 (D.vf_for_kernel M.neon_a57 e.kernel)

let test_typed_llv_equivalence () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let vf = D.vf_for_kernel M.neon_a57 e.kernel in
      if vf >= 2 then
        match Vvect.Llv.vectorize ~vf e.kernel with
        | Error _ -> ()
        | Ok vk ->
            let rs = Vinterp.Interp.run ~n:173 e.kernel in
            let rv = Vvect.Vexec.run ~n:173 vk in
            check (e.kernel.Kernel.name ^ " memory") true
              (Vinterp.Env.snapshot rs.Vinterp.Interp.env
              = Vinterp.Env.snapshot rv.Vinterp.Interp.env))
    Tsvc.Registry.typed_extension

(* --- experiment-level invariants --------------------------------------------- *)

let small_config = { Experiment.default_config with n = 8000 }

let row_eval (r : Report.result) label =
  (List.find (fun (x : Report.row) -> x.Report.label = label) r.Report.rows)
    .Report.eval

let test_a3_shape () =
  let big, little = Experiment.a3 ~config:small_config () in
  let fb = row_eval big "NNLS rated" in
  let fl = row_eval little "NNLS rated" in
  let bb = row_eval big "baseline (LLVM-style)" in
  let bl = row_eval little "baseline (LLVM-style)" in
  check "fit beats baseline on big core" true (fb.Metrics.pearson > bb.Metrics.pearson);
  check "fit beats baseline on little core" true
    (fl.Metrics.pearson > bl.Metrics.pearson)

let test_a4_extended_not_worse () =
  let r = Experiment.a4 ~config:small_config () in
  let rated = row_eval r "NNLS rated (LOOCV)" in
  let ext = row_eval r "NNLS extended (LOOCV)" in
  check "extended at least as good out-of-sample" true
    (ext.Metrics.pearson >= rated.Metrics.pearson -. 0.02)

let test_a5_typed_training_helps () =
  let r = Experiment.a5 ~config:small_config () in
  let base_trained = row_eval r "f32-trained, typed test set" in
  let typed_trained = row_eval r "typed-trained, typed test set" in
  check "typed training improves typed prediction" true
    (typed_trained.Metrics.pearson > base_trained.Metrics.pearson)

let tests =
  [ Alcotest.test_case "a53 in-order flag" `Quick test_a53_is_inorder;
    Alcotest.test_case "critical path chain" `Quick test_critical_path;
    Alcotest.test_case "critical path join" `Quick test_critical_path_parallel;
    Alcotest.test_case "in-order slower" `Quick test_inorder_slower_than_ooo;
    Alcotest.test_case "a53 estimates" `Quick test_a53_all_kernels_estimable;
    Alcotest.test_case "a53 speedups sane" `Slow test_a53_speedups_sane;
    Alcotest.test_case "extended dim" `Quick test_extended_dim;
    Alcotest.test_case "extended values" `Quick test_extended_values;
    Alcotest.test_case "extended recurrence" `Quick test_extended_recurrence_feature;
    Alcotest.test_case "extended intensity" `Quick test_extended_intensity_orders_kernels;
    Alcotest.test_case "feature product chains" `Quick test_feature_product_chains;
    Alcotest.test_case "typed size" `Quick test_typed_extension_size;
    Alcotest.test_case "typed valid" `Quick test_typed_all_valid;
    Alcotest.test_case "typed disjoint" `Quick test_typed_names_disjoint_from_base;
    Alcotest.test_case "typed f64 vf" `Quick test_typed_f64_narrower_vf;
    Alcotest.test_case "typed llv equivalence" `Quick test_typed_llv_equivalence;
    Alcotest.test_case "A3 shape" `Slow test_a3_shape;
    Alcotest.test_case "A4 shape" `Slow test_a4_extended_not_worse;
    Alcotest.test_case "A5 shape" `Slow test_a5_typed_training_helps ]
