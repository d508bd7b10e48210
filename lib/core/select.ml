(* Transformation selection: the paper's backup slide motivates accurate,
   *aligned* cost models by showing that LLV and SLP estimates produced by
   the stock compiler cannot be compared against each other.  This module
   turns that observation into a policy experiment: for each kernel, choose
   among {scalar, LLV at two widths, SLP} using different predictors and
   account the resulting execution time.

   Candidate-aware prediction needs a model that prices the *transformed*
   code; that is exactly what the cost-targeted fit provides (one weight
   vector pricing scalar and vector blocks alike). *)

open Vir

type candidate = {
  cd_label : string;
  cd_vk : Vvect.Vinstr.vkernel option;  (* None = stay scalar *)
  cd_cycles : float;  (* "measured" total cycles for the full run *)
}

(* All applicable candidates for one kernel, with measured cycle totals. *)
let candidates ~noise_amp ~seed (machine : Vmachine.Descr.t) ~n
    (k : Kernel.t) =
  let scalar =
    { cd_label = "scalar"; cd_vk = None;
      cd_cycles = Vmachine.Measure.total_scalar_cycles machine ~n k }
  in
  let vf = Vmachine.Descr.vf_for_kernel machine k in
  let try_transform label transform vf =
    if vf < 2 then None
    else
      match transform ~vf k with
      | Ok vk ->
          let m = Vmachine.Measure.measure ~noise_amp ~seed machine ~n vk in
          Some
            { cd_label = Printf.sprintf "%s@%d" label vf; cd_vk = Some vk;
              cd_cycles = m.Vmachine.Measure.scalar_cycles /. m.Vmachine.Measure.speedup }
      | Error _ -> None
  in
  (* Loop interchange as an enabling transform: offered when the nest only
     vectorizes the other way around. *)
  let interchange_candidate =
    match Vvect.Interchange.enable_vectorization k with
    | None -> None
    | Some k' -> (
        match Vvect.Llv.vectorize ~vf k' with
        | Error _ -> None
        | Ok vk ->
            let m = Vmachine.Measure.measure ~noise_amp ~seed machine ~n vk in
            Some
              { cd_label = Printf.sprintf "interchange+llv@%d" vf;
                cd_vk = Some vk;
                cd_cycles =
                  m.Vmachine.Measure.scalar_cycles /. m.Vmachine.Measure.speedup })
  in
  scalar
  :: List.filter_map Fun.id
       [ try_transform "llv" (fun ~vf k -> Vvect.Llv.vectorize ~vf k) vf;
         try_transform "llv" (fun ~vf k -> Vvect.Llv.vectorize ~vf k) (vf / 2);
         try_transform "slp" (fun ~vf k -> Vvect.Slp.vectorize ~vf k) vf;
         interchange_candidate ]

(* Predicted speedup of a candidate under a cost-targeted model: scalar
   blocks and vector blocks are priced with the same weights, so candidates
   of different shapes become comparable. *)
let predict_candidate (m : Linmodel.t) (k : Kernel.t) (c : candidate) =
  match c.cd_vk with
  | None -> 1.0
  | Some vk -> (
      match m.Linmodel.target with
      | Linmodel.Cost ->
          let dot w f =
            let acc = ref 0.0 in
            Array.iteri (fun i v -> acc := !acc +. (v *. w.(i))) f;
            !acc
          in
          let fvf = float_of_int vk.Vvect.Vinstr.vf in
          let scalar_cost =
            dot m.Linmodel.weights
              (Array.map (fun v -> v *. fvf) (Feature.counts k))
          in
          let vector_cost = dot m.Linmodel.weights (Feature.vcounts vk) in
          if vector_cost <= 1e-6 then fvf
          else Float.max 0.0 (scalar_cost /. vector_cost)
      | Linmodel.Speedup ->
          invalid_arg
            "Select.predict_candidate: needs a cost-targeted model")

(* Baseline (LLVM-style) prediction for a candidate. *)
let predict_baseline (c : candidate) =
  match c.cd_vk with None -> 1.0 | Some vk -> Baseline.predicted_speedup vk

type policy =
  | Always_scalar
  | Default_vectorize  (* first vector candidate if any, else scalar *)
  | By_baseline
  | By_cost_model of Linmodel.t
  | Oracle

let policy_label = function
  | Always_scalar -> "always scalar"
  | Default_vectorize -> "always vectorize (default VF)"
  | By_baseline -> "baseline model"
  | By_cost_model _ -> "fitted cost model"
  | Oracle -> "oracle"

let choose policy (k : Kernel.t) (cands : candidate list) =
  let argbest f =
    List.fold_left
      (fun acc c -> match acc with
        | Some best when f best >= f c -> acc
        | _ -> Some c)
      None cands
  in
  match policy with
  | Always_scalar -> List.hd cands
  | Default_vectorize -> (
      match List.filter (fun c -> c.cd_vk <> None) cands with
      | c :: _ -> c
      | [] -> List.hd cands)
  | By_baseline -> Option.get (argbest predict_baseline)
  | By_cost_model m -> Option.get (argbest (predict_candidate m k))
  | Oracle -> Option.get (argbest (fun c -> -.c.cd_cycles))

type summary = {
  sm_policy : string;
  sm_total_cycles : float;
  sm_optimal_picks : int;  (* kernels where the choice matched the oracle *)
  sm_kernels : int;
}

(* Account a policy over a kernel set. *)
let evaluate ?(noise_amp = Vmachine.Measure.default_noise) ?(seed = 1)
    (machine : Vmachine.Descr.t) ~n policy (entries : Tsvc.Registry.entry list) =
  let total = ref 0.0 in
  let optimal = ref 0 in
  let count = ref 0 in
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let cands = candidates ~noise_amp ~seed machine ~n e.kernel in
      let chosen = choose policy e.kernel cands in
      let best = choose Oracle e.kernel cands in
      incr count;
      total := !total +. chosen.cd_cycles;
      if chosen.cd_cycles <= best.cd_cycles *. 1.0001 then incr optimal)
    entries;
  {
    sm_policy = policy_label policy;
    sm_total_cycles = !total;
    sm_optimal_picks = !optimal;
    sm_kernels = !count;
  }
