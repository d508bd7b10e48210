(* Executable semantics for vectorized kernels: each wide instruction
   processes all VF lanes before the next instruction runs, which is exactly
   the execution model the dependence legality criterion assumes.  The
   property tests compare final memory and reduction values against the
   scalar interpreter. *)

open Vir
module I = Vinterp.Interp
module Env = Vinterp.Env

type vval = Vec of I.value array | Sca of I.value

let as_vec ~vf = function
  | Vec a -> a
  | Sca v -> Array.make vf v

let as_sca = function
  | Sca v -> v
  | Vec _ -> invalid_arg "Vexec: vector value in scalar position"

(* Evaluate a [Splat]/[Sc] scalar operand.  [Reg] refers to vbody positions;
   the innermost variable is only legal where [inner_val] is supplied. *)
let eval_scalar_op env vals ~outer ?inner_val (op : Instr.operand) =
  match op with
  | Instr.Reg r -> as_sca vals.(r)
  | Instr.Index v -> (
      match List.assoc_opt v outer with
      | Some x -> I.V_int x
      | None -> (
          match inner_val with
          | Some x -> I.V_int x
          | None ->
              invalid_arg
                (Printf.sprintf "Vexec: loop variable %s in invariant position" v)))
  | Instr.Param p -> I.V_float (Env.param env p)
  | Instr.Imm_int i -> I.V_int i
  | Instr.Imm_float f -> I.V_float f

let eval_vop env vals ~vf ~outer (op : Vinstr.voperand) =
  match op with
  | Vinstr.V r -> as_vec ~vf vals.(r)
  | Vinstr.Splat s -> Array.make vf (eval_scalar_op env vals ~outer s)

let lane_bin ty op a b =
  if Types.is_float ty then
    I.V_float (I.float_bin op (I.to_float a) (I.to_float b))
  else I.V_int (I.int_bin op (I.to_int a) (I.to_int b))

let lane_una ty op a =
  if Types.is_float ty then I.V_float (I.float_una op (I.to_float a))
  else I.V_int (I.int_una op (I.to_int a))

let lane_cmp ty op a b =
  if Types.is_float ty then I.V_bool (I.float_cmp op (I.to_float a) (I.to_float b))
  else
    I.V_bool
      (I.float_cmp op (float_of_int (I.to_int a)) (float_of_int (I.to_int b)))

(* Execute one scalar instruction on behalf of unroll copy [copy]. *)
let exec_sc env vals ~outer ~inner_var ~inner_val instr =
  let ev op = eval_scalar_op env vals ~outer ~inner_val op in
  let bindings = (inner_var, inner_val) :: outer in
  let resolve = function
    | Instr.Affine { arr; dims } -> (arr, I.flat_index env bindings dims)
    | Instr.Indirect { arr; idx } -> (arr, I.to_int (ev idx))
  in
  match instr with
  | Instr.Bin { ty; op; a; b } -> lane_bin ty op (ev a) (ev b)
  | Instr.Una { ty; op; a } -> lane_una ty op (ev a)
  | Instr.Fma { a; b; c; _ } ->
      I.V_float ((I.to_float (ev a) *. I.to_float (ev b)) +. I.to_float (ev c))
  | Instr.Cmp { ty; op; a; b } -> lane_cmp ty op (ev a) (ev b)
  | Instr.Select { ty; cond; if_true; if_false } ->
      let arm = if I.to_bool (ev cond) then if_true else if_false in
      if Types.is_float ty then I.V_float (I.to_float (ev arm))
      else I.V_int (I.to_int (ev arm))
  | Instr.Load { ty; addr } ->
      let arr, i = resolve addr in
      if Types.is_float ty then I.V_float (Env.read_float env arr i)
      else I.V_int (Env.read_int env arr i)
  | Instr.Store { ty; addr; src } ->
      let arr, i = resolve addr in
      (if Types.is_float ty then Env.write_float env arr i (I.to_float (ev src))
       else Env.write_int env arr i (I.to_int (ev src)));
      I.V_int 0
  | Instr.Cast { dst_ty; a; _ } ->
      if Types.is_float dst_ty then I.V_float (I.to_float (ev a))
      else I.V_int (I.to_int (ev a))

(* Execute the wide body once for the block whose lane 0 has the innermost
   variable at [v0]. *)
let exec_block env (vk : Vinstr.vkernel) ~outer ~v0 ~vaccs =
  let inner = Kernel.innermost vk.scalar in
  let vf = vk.vf in
  let lane_val l = v0 + (l * inner.step) in
  let vals = Array.make (List.length vk.vbody) (Sca (I.V_int 0)) in
  let ev = eval_vop env vals ~vf ~outer in
  List.iteri
    (fun pos vi ->
      let result =
        match vi with
        | Vinstr.Vbin { ty; op; a; b } ->
            let va = ev a and vb = ev b in
            Vec (Array.init vf (fun l -> lane_bin ty op va.(l) vb.(l)))
        | Vinstr.Vuna { ty; op; a } ->
            let va = ev a in
            Vec (Array.init vf (fun l -> lane_una ty op va.(l)))
        | Vinstr.Vfma { a; b; c; _ } ->
            let va = ev a and vb = ev b and vc = ev c in
            Vec
              (Array.init vf (fun l ->
                   I.V_float
                     ((I.to_float va.(l) *. I.to_float vb.(l))
                     +. I.to_float vc.(l))))
        | Vinstr.Vcmp { ty; op; a; b } ->
            let va = ev a and vb = ev b in
            Vec (Array.init vf (fun l -> lane_cmp ty op va.(l) vb.(l)))
        | Vinstr.Vselect { ty; cond; if_true; if_false } ->
            let vc = ev cond and vt = ev if_true and vff = ev if_false in
            Vec
              (Array.init vf (fun l ->
                   let arm = if I.to_bool vc.(l) then vt.(l) else vff.(l) in
                   if Types.is_float ty then I.V_float (I.to_float arm)
                   else I.V_int (I.to_int arm)))
        | Vinstr.Viota _ -> Vec (Array.init vf (fun l -> I.V_int (lane_val l)))
        | Vinstr.Vload { ty; arr; dims; access = _ } ->
            Vec
              (Array.init vf (fun l ->
                   let bindings = (inner.var, lane_val l) :: outer in
                   let i = I.flat_index env bindings dims in
                   if Types.is_float ty then I.V_float (Env.read_float env arr i)
                   else I.V_int (Env.read_int env arr i)))
        | Vinstr.Vstore { ty; arr; dims; access = _; src } ->
            let vs = ev src in
            for l = 0 to vf - 1 do
              let bindings = (inner.var, lane_val l) :: outer in
              let i = I.flat_index env bindings dims in
              if Types.is_float ty then Env.write_float env arr i (I.to_float vs.(l))
              else Env.write_int env arr i (I.to_int vs.(l))
            done;
            Sca (I.V_int 0)
        | Vinstr.Vgather { ty; arr; idx } ->
            let vi = ev idx in
            Vec
              (Array.init vf (fun l ->
                   let i = I.to_int vi.(l) in
                   if Types.is_float ty then I.V_float (Env.read_float env arr i)
                   else I.V_int (Env.read_int env arr i)))
        | Vinstr.Vscatter { ty; arr; idx; src } ->
            let vi = ev idx and vs = ev src in
            for l = 0 to vf - 1 do
              let i = I.to_int vi.(l) in
              if Types.is_float ty then Env.write_float env arr i (I.to_float vs.(l))
              else Env.write_int env arr i (I.to_int vs.(l))
            done;
            Sca (I.V_int 0)
        | Vinstr.Vcast { dst_ty; a; _ } ->
            let va = ev a in
            Vec
              (Array.init vf (fun l ->
                   if Types.is_float dst_ty then I.V_float (I.to_float va.(l))
                   else I.V_int (I.to_int va.(l))))
        | Vinstr.Vpack { srcs; _ } ->
            Vec (Array.map (fun s -> eval_scalar_op env vals ~outer s) srcs)
        | Vinstr.Vextract { src; lane; _ } -> Sca ((ev src).(lane))
        | Vinstr.Sc { copy; instr } ->
            Sca
              (exec_sc env vals ~outer ~inner_var:inner.var
                 ~inner_val:(lane_val copy) instr)
      in
      vals.(pos) <- result)
    vk.vbody;
  (* Fold this block into the per-lane reduction accumulators. *)
  List.iteri
    (fun j (r : Vinstr.vreduction) ->
      let vs = ev r.vr_src in
      let acc = vaccs.(j) in
      for l = 0 to vf - 1 do
        acc.(l) <- I.red_combine r.vr_op acc.(l) (I.to_float vs.(l))
      done)
    vk.vreductions

(* Run a vectorized kernel to completion in [env]: wide blocks while a full
   block fits, then the scalar epilogue, exactly as generated code would. *)
let run_in env (vk : Vinstr.vkernel) =
  let k = vk.scalar in
  let inner = Kernel.innermost k in
  let nred = List.length k.reductions in
  let vaccs =
    Array.init nred (fun j ->
        let r = List.nth vk.vreductions j in
        Array.make vk.vf (I.red_neutral r.vr_op))
  in
  (* Scalar accumulators used from the epilogue onwards. *)
  let accs = Array.make nred 0.0 in
  let outer_loops =
    match List.rev k.loops with _ :: rest -> List.rev rest | [] -> []
  in
  let run_inner outer =
    let bound = Kernel.trip_bound ~n:env.Env.n inner.trip in
    (* One loop iteration covers ic interleaved sub-blocks of vf lanes. *)
    let span = vk.vf * vk.ic * inner.step in
    let sub_span = vk.vf * inner.step in
    let v = ref inner.start in
    while !v + span - inner.step < bound do
      for c = 0 to vk.ic - 1 do
        exec_block env vk ~outer ~v0:(!v + (c * sub_span)) ~vaccs
      done;
      v := !v + span
    done;
    (* Epilogue: leftover iterations, scalar. *)
    while !v < bound do
      I.exec_iteration env k ~idx:((inner.var, !v) :: outer) ~accs;
      v := !v + inner.step
    done
  in
  let rec drive loops outer =
    match loops with
    | [] -> run_inner outer
    | (l : Kernel.loop) :: rest ->
        let bound = Kernel.trip_bound ~n:env.Env.n l.trip in
        let v = ref l.start in
        while !v < bound do
          drive rest ((l.var, !v) :: outer);
          v := !v + l.step
        done
  in
  (* The epilogue accumulates into [accs] starting from the neutral element;
     lanes and the declared initial value are folded in at the end. *)
  List.iteri (fun j (r : Kernel.reduction) -> accs.(j) <- I.red_neutral r.red_op)
    k.reductions;
  drive outer_loops [];
  List.mapi
    (fun j (r : Kernel.reduction) ->
      let lanes = vaccs.(j) in
      let folded = Array.fold_left (I.red_combine r.red_op) accs.(j) lanes in
      (r.red_name, I.red_combine r.red_op r.red_init folded))
    k.reductions

let run ~n (vk : Vinstr.vkernel) =
  let env = Env.create ~n vk.scalar in
  let reductions = run_in env vk in
  ({ I.env; reductions } : I.result)
