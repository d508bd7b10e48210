(* Dataflow facts over the SSA-by-position scalar body.

   Because a body is a single basic block in SSA-by-position form, the
   classic iterative dataflow problems collapse to one forward sweep
   (reaching constants, innermost-loop invariance) and one backward sweep
   (liveness towards the kernel's observable effects: stores and
   reductions).  The lint passes consume these facts rather than recomputing
   them. *)

open Vir

type const = Cint of int | Cfloat of float

type t = {
  kernel : Kernel.t;
  body : Instr.t array;
  reduction_uses : int array;  (* times register [r] feeds a reduction *)
  live : bool array;
      (* value transitively reaches a store or a reduction *)
  consts : const option array;  (* reaching-constant value, if static *)
  invariant : bool array;
      (* value is the same on every iteration of the innermost loop *)
}

(* --- constant propagation ------------------------------------------------ *)

let fold_binop_float op a b =
  match op with
  | Op.Add -> Some (a +. b)
  | Op.Sub -> Some (a -. b)
  | Op.Mul -> Some (a *. b)
  | Op.Div when b <> 0.0 -> Some (a /. b)
  | Op.Min -> Some (Float.min a b)
  | Op.Max -> Some (Float.max a b)
  | _ -> None

let fold_binop_int op a b =
  match op with
  | Op.Add -> Some (a + b)
  | Op.Sub -> Some (a - b)
  | Op.Mul -> Some (a * b)
  | Op.Div when b <> 0 -> Some (a / b)
  | Op.Rem when b <> 0 -> Some (a mod b)
  | Op.Min -> Some (min a b)
  | Op.Max -> Some (max a b)
  | Op.And -> Some (a land b)
  | Op.Or -> Some (a lor b)
  | Op.Xor -> Some (a lxor b)
  | Op.Shl -> Some (a lsl (b land 63))
  | Op.Shr -> Some (a asr (b land 63))
  | _ -> None

let fold_unop_float op a =
  match op with
  | Op.Neg -> Some (-.a)
  | Op.Abs -> Some (abs_float a)
  | Op.Sqrt when a >= 0.0 -> Some (sqrt a)
  | _ -> None

let fold_unop_int op a =
  match op with
  | Op.Neg -> Some (-a)
  | Op.Abs -> Some (abs a)
  | Op.Not -> Some (lnot a)
  | _ -> None

(* --- analysis ------------------------------------------------------------ *)

let analyze (k : Kernel.t) : t =
  let body = Array.of_list k.Kernel.body in
  let n = Array.length body in
  let reduction_uses = Array.make n 0 in
  let live = Array.make n false in
  let consts = Array.make n None in
  let invariant = Array.make n false in
  let inner = Kernel.innermost k in
  List.iter
    (fun (red : Kernel.reduction) ->
      match red.red_src with
      | Instr.Reg r when r >= 0 && r < n ->
          reduction_uses.(r) <- reduction_uses.(r) + 1
      | _ -> ())
    k.reductions;
  (* Liveness: backward reachability from the observable effects. *)
  let worklist = ref [] in
  let mark r =
    if r >= 0 && r < n && not live.(r) then begin
      live.(r) <- true;
      worklist := r :: !worklist
    end
  in
  Array.iteri
    (fun pos instr ->
      if Instr.is_store instr then begin
        live.(pos) <- true;
        List.iter mark (Instr.reg_uses instr)
      end)
    body;
  Array.iteri (fun r c -> if c > 0 then mark r) reduction_uses;
  let rec drain () =
    match !worklist with
    | [] -> ()
    | r :: rest ->
        worklist := rest;
        List.iter mark (Instr.reg_uses body.(r));
        drain ()
  in
  drain ();
  (* Whether any store in the body writes [arr]; a load from an unwritten
     array yields the same value whenever its address repeats. *)
  let written = Hashtbl.create 4 in
  Array.iter
    (fun instr ->
      match instr with
      | Instr.Store { addr; _ } ->
          Hashtbl.replace written (Instr.addr_array addr) ()
      | _ -> ())
    body;
  (* Forward sweep: reaching constants and innermost-loop invariance. *)
  let dim_invariant (d : Instr.dim) =
    not (List.mem_assoc inner.Kernel.var d.Instr.terms)
  in
  let operand_const = function
    | Instr.Imm_int i -> Some (Cint i)
    | Instr.Imm_float f -> Some (Cfloat f)
    | Instr.Reg r when r >= 0 && r < n -> consts.(r)
    | Instr.Reg _ | Instr.Index _ | Instr.Param _ -> None
  in
  let operand_invariant = function
    | Instr.Imm_int _ | Instr.Imm_float _ | Instr.Param _ -> true
    | Instr.Index v -> not (String.equal v inner.Kernel.var)
    | Instr.Reg r -> r >= 0 && r < n && invariant.(r)
  in
  let addr_invariant = function
    | Instr.Affine { dims; _ } -> List.for_all dim_invariant dims
    | Instr.Indirect { idx; _ } -> operand_invariant idx
  in
  Array.iteri
    (fun pos instr ->
      (consts.(pos) <-
         (match instr with
         | Instr.Bin { ty; op; a; b } -> (
             match (operand_const a, operand_const b) with
             | Some (Cfloat x), Some (Cfloat y) when Types.is_float ty ->
                 Option.map (fun v -> Cfloat v) (fold_binop_float op x y)
             | Some (Cint x), Some (Cint y) when Types.is_int ty ->
                 Option.map (fun v -> Cint v) (fold_binop_int op x y)
             | _ -> None)
         | Instr.Una { ty; op; a } -> (
             match operand_const a with
             | Some (Cfloat x) when Types.is_float ty ->
                 Option.map (fun v -> Cfloat v) (fold_unop_float op x)
             | Some (Cint x) when Types.is_int ty ->
                 Option.map (fun v -> Cint v) (fold_unop_int op x)
             | _ -> None)
         | Instr.Cast { dst_ty; a; _ } -> (
             match (operand_const a, Types.is_float dst_ty) with
             | Some (Cfloat f), true -> Some (Cfloat f)
             | Some (Cint i), true -> Some (Cfloat (float_of_int i))
             | Some (Cint i), false -> Some (Cint i)
             | Some (Cfloat f), false -> Some (Cint (int_of_float f))
             | None, _ -> None)
         | Instr.Fma { a; b; c; _ } -> (
             match (operand_const a, operand_const b, operand_const c) with
             | Some (Cfloat x), Some (Cfloat y), Some (Cfloat z) ->
                 Some (Cfloat ((x *. y) +. z))
             | _ -> None)
         | Instr.Cmp _ | Instr.Select _ | Instr.Load _ | Instr.Store _ -> None));
      invariant.(pos) <-
        (match instr with
        | Instr.Load { addr; _ } ->
            (* Invariant only when the location is fixed across the innermost
               loop and nothing in the body can overwrite it. *)
            addr_invariant addr
            && not (Hashtbl.mem written (Instr.addr_array addr))
        | Instr.Store _ -> false
        | Instr.Bin _ | Instr.Una _ | Instr.Fma _ | Instr.Cmp _
        | Instr.Select _ | Instr.Cast _ ->
            List.for_all operand_invariant (Instr.operands instr)))
    body;
  { kernel = k; body; reduction_uses; live; consts; invariant }

let operand_invariant t = function
  | Instr.Imm_int _ | Instr.Imm_float _ | Instr.Param _ -> true
  | Instr.Index v ->
      not (String.equal v (Kernel.innermost t.kernel).Kernel.var)
  | Instr.Reg r -> r >= 0 && r < Array.length t.body && t.invariant.(r)

let addr_invariant t = function
  | Instr.Affine { dims; _ } ->
      let inner = Kernel.innermost t.kernel in
      List.for_all
        (fun (d : Instr.dim) ->
          not (List.mem_assoc inner.Kernel.var d.Instr.terms))
        dims
  | Instr.Indirect { idx; _ } -> operand_invariant t idx
