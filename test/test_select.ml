(* Tests for the transformation-selection policies (A7). *)

open Costmodel

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine = Vmachine.Machines.neon_a57
let n = 8000

let kern name = (Tsvc.Registry.find_exn name).kernel

let candidates =
  Select.candidates ~noise_amp:Vmachine.Measure.default_noise ~seed:1 machine
    ~n

let cands name = candidates (kern name)

let test_scalar_always_present () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let cs = candidates e.kernel in
      check (e.kernel.Vir.Kernel.name ^ " has scalar") true
        (List.exists (fun c -> c.Select.cd_vk = None) cs))
    Tsvc.Registry.all

let test_candidate_spread () =
  (* A simple contiguous kernel gets scalar, llv@4, llv@2 and slp@4. *)
  let cs = cands "s000" in
  check_int "four candidates" 4 (List.length cs);
  (* A recurrence gets only the scalar candidate. *)
  check_int "recurrence stays scalar" 1 (List.length (cands "s321"))

let test_vf_limited_kernel () =
  (* s1221 (distance 4) admits llv@4 and llv@2 but not vf 8; on NEON the
     natural vf is 4 so both vector widths are present. *)
  let cs = cands "s1221" in
  let labels = List.map (fun c -> c.Select.cd_label) cs in
  check "llv@4 present" true (List.mem "llv@4" labels);
  check "llv@2 present" true (List.mem "llv@2" labels)

let test_oracle_picks_minimum () =
  let cs = cands "s000" in
  let best = Select.choose Select.Oracle (kern "s000") cs in
  List.iter
    (fun c -> check "oracle minimal" true (best.Select.cd_cycles <= c.Select.cd_cycles))
    cs

let test_always_scalar_picks_scalar () =
  let cs = cands "s000" in
  let c = Select.choose Select.Always_scalar (kern "s000") cs in
  check "scalar candidate" true (c.Select.cd_vk = None)

let test_cost_model_prediction_positive () =
  let train =
    Dataset.build ~machine ~transform:Dataset.Llv ~n Tsvc.Registry.all
  in
  let m =
    Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Raw
      ~target:Linmodel.Cost train
  in
  List.iter
    (fun c ->
      let p = Select.predict_candidate m (kern "s000") c in
      check "prediction finite and nonnegative" true (Float.is_finite p && p >= 0.0))
    (cands "s000")

let test_speedup_model_rejected () =
  let train =
    Dataset.build ~machine ~transform:Dataset.Llv ~n Tsvc.Registry.all
  in
  let m =
    Linmodel.fit ~method_:Linmodel.Nnls ~features:Linmodel.Rated
      ~target:Linmodel.Speedup train
  in
  let vec_cand =
    List.find (fun c -> c.Select.cd_vk <> None) (cands "s000")
  in
  Alcotest.check_raises "speedup model rejected"
    (Invalid_argument "Select.predict_candidate: needs a cost-targeted model")
    (fun () -> ignore (Select.predict_candidate m (kern "s000") vec_cand))

let test_policy_ordering () =
  (* Over the whole suite: oracle <= any policy <= always-scalar (the
     worst reasonable policy on this suite). *)
  let entries = Tsvc.Registry.all in
  let eval p = (Select.evaluate machine ~n p entries).Select.sm_total_cycles in
  let oracle = eval Select.Oracle in
  let scalar = eval Select.Always_scalar in
  let baseline = eval Select.By_baseline in
  let default = eval Select.Default_vectorize in
  check "oracle best" true (oracle <= baseline && oracle <= default);
  check "scalar worst" true (scalar >= baseline && scalar >= default)

let test_oracle_all_optimal () =
  let s = Select.evaluate machine ~n Select.Oracle Tsvc.Registry.all in
  check_int "oracle optimal everywhere" s.Select.sm_kernels s.Select.sm_optimal_picks

let test_a7_shape () =
  let cfg = { Experiment.default_config with n = 8000 } in
  let r = Experiment.a7 ~config:cfg () in
  check_int "five policies" 5 (List.length r.Experiment.a7_rows);
  let by label =
    List.find (fun (s : Select.summary) -> s.Select.sm_policy = label)
      r.Experiment.a7_rows
  in
  let oracle = by "oracle" and fitted = by "fitted cost model" in
  let scalar = by "always scalar" in
  check "fitted within 2% of oracle" true
    (fitted.Select.sm_total_cycles <= oracle.Select.sm_total_cycles *. 1.02);
  check "fitted far better than scalar" true
    (fitted.Select.sm_total_cycles < scalar.Select.sm_total_cycles *. 0.95)

let tests =
  [ Alcotest.test_case "scalar always present" `Slow test_scalar_always_present;
    Alcotest.test_case "candidate spread" `Quick test_candidate_spread;
    Alcotest.test_case "vf-limited kernel" `Quick test_vf_limited_kernel;
    Alcotest.test_case "oracle minimal" `Quick test_oracle_picks_minimum;
    Alcotest.test_case "always scalar" `Quick test_always_scalar_picks_scalar;
    Alcotest.test_case "cost prediction" `Quick test_cost_model_prediction_positive;
    Alcotest.test_case "speedup model rejected" `Quick test_speedup_model_rejected;
    Alcotest.test_case "policy ordering" `Slow test_policy_ordering;
    Alcotest.test_case "oracle optimal" `Slow test_oracle_all_optimal;
    Alcotest.test_case "A7 shape" `Slow test_a7_shape ]

let test_interchange_candidate_present () =
  (* s232 only vectorizes after interchange; Select must offer it. *)
  let cs = cands "s232" in
  check "interchange candidate offered" true
    (List.exists
       (fun c ->
         String.length c.Select.cd_label >= 11
         && String.sub c.Select.cd_label 0 11 = "interchange")
       cs)

let tests = tests @ [ Alcotest.test_case "interchange candidate" `Quick test_interchange_candidate_present ]
