(* Reference (scalar) interpreter.  Executes kernels exactly as written, one
   innermost iteration at a time; the vectorized executor in [Vvect] reuses
   [exec_iteration] for its scalar epilogue and must produce the same final
   state, which the property tests check. *)

open Vir

type value = V_int of int | V_float of float | V_bool of bool

let to_float = function
  | V_float f -> f
  | V_int i -> float_of_int i
  | V_bool _ -> invalid_arg "Interp: mask used as a number"

let to_int = function
  | V_int i -> i
  | V_float f -> int_of_float f
  | V_bool _ -> invalid_arg "Interp: mask used as a number"

let to_bool = function
  | V_bool b -> b
  | V_int _ | V_float _ -> invalid_arg "Interp: number used as a mask"

(* --- operator semantics ------------------------------------------------ *)

let float_bin (op : Op.binop) a b =
  match op with
  | Op.Add -> a +. b
  | Op.Sub -> a -. b
  | Op.Mul -> a *. b
  | Op.Div -> a /. b
  | Op.Min -> Float.min a b
  | Op.Max -> Float.max a b
  | Op.Rem | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr ->
      invalid_arg "Interp: integer-only binop on floats"

let int_bin (op : Op.binop) a b =
  match op with
  | Op.Add -> a + b
  | Op.Sub -> a - b
  | Op.Mul -> a * b
  | Op.Div -> if b = 0 then invalid_arg "Interp: division by zero" else a / b
  | Op.Rem -> if b = 0 then invalid_arg "Interp: rem by zero" else a mod b
  | Op.Min -> min a b
  | Op.Max -> max a b
  | Op.And -> a land b
  | Op.Or -> a lor b
  | Op.Xor -> a lxor b
  | Op.Shl -> a lsl (b land 63)
  | Op.Shr -> a asr (b land 63)

let float_una (op : Op.unop) a =
  match op with
  | Op.Neg -> -.a
  | Op.Abs -> abs_float a
  | Op.Sqrt -> sqrt a
  | Op.Not -> invalid_arg "Interp: not on float"

let int_una (op : Op.unop) a =
  match op with
  | Op.Neg -> -a
  | Op.Abs -> abs a
  | Op.Not -> lnot a
  | Op.Sqrt -> invalid_arg "Interp: sqrt on int"

let float_cmp (op : Op.cmpop) a b =
  match op with
  | Op.Eq -> a = b
  | Op.Ne -> a <> b
  | Op.Lt -> a < b
  | Op.Le -> a <= b
  | Op.Gt -> a > b
  | Op.Ge -> a >= b

let red_combine (op : Op.redop) acc v =
  match op with
  | Op.Rsum -> acc +. v
  | Op.Rprod -> acc *. v
  | Op.Rmin -> Float.min acc v
  | Op.Rmax -> Float.max acc v

let red_neutral (op : Op.redop) =
  match op with
  | Op.Rsum -> 0.0
  | Op.Rprod -> 1.0
  | Op.Rmin -> infinity
  | Op.Rmax -> neg_infinity

(* --- addressing --------------------------------------------------------- *)

(* [rel_n] in a subscript means "+ (traversal bound - 1)": n for 1-d arrays,
   n2 per dimension of 2-d arrays. *)
let eval_dim env ~ndims idx (d : Instr.dim) =
  let bound = if ndims >= 2 then env.Env.n2 else env.Env.n in
  let base = if d.rel_n then bound - 1 else 0 in
  let vars =
    List.fold_left
      (fun acc (v, c) ->
        match List.assoc_opt v idx with
        | Some value -> acc + (c * value)
        | None -> invalid_arg (Printf.sprintf "Interp: unbound loop var %s" v))
      0 d.terms
  in
  let pars =
    List.fold_left
      (fun acc (p, c) -> acc + (c * int_of_float (Env.param env p)))
      0 d.pterms
  in
  base + vars + pars + d.off

let flat_index env idx (dims : Instr.dim list) =
  match dims with
  | [ d ] -> eval_dim env ~ndims:1 idx d
  | [ d0; d1 ] ->
      (eval_dim env ~ndims:2 idx d0 * env.Env.n2) + eval_dim env ~ndims:2 idx d1
  | _ -> invalid_arg "Interp: unsupported dimensionality"

let resolve_addr env idx regs = function
  | Instr.Affine { arr; dims } -> (arr, flat_index env idx dims)
  | Instr.Indirect { arr; idx = op } ->
      let v =
        match op with
        | Instr.Reg r -> to_int regs.(r)
        | Instr.Index v -> (
            match List.assoc_opt v idx with
            | Some value -> value
            | None -> invalid_arg "Interp: unbound loop var in indirect index")
        | Instr.Param p -> int_of_float (Env.param env p)
        | Instr.Imm_int i -> i
        | Instr.Imm_float _ -> invalid_arg "Interp: float indirect index"
      in
      (arr, v)

(* --- execution ---------------------------------------------------------- *)

let eval_operand env idx regs = function
  | Instr.Reg r -> regs.(r)
  | Instr.Index v -> (
      match List.assoc_opt v idx with
      | Some value -> V_int value
      | None -> invalid_arg (Printf.sprintf "Interp: unbound loop var %s" v))
  | Instr.Param p -> V_float (Env.param env p)
  | Instr.Imm_int i -> V_int i
  | Instr.Imm_float f -> V_float f

(* Execute the body once for the given loop-variable bindings, updating
   memory and the reduction accumulators in place.  [observe] sees every
   register result as it is defined (position, value) — the soundness
   property tests hang abstract-interpretation containment checks off it
   through [run_in]. *)
let exec_body observe env (k : Kernel.t) ~idx ~accs =
  let regs = Array.make (List.length k.body) (V_int 0) in
  List.iteri
    (fun pos instr ->
      let ev op = eval_operand env idx regs op in
      let result =
        match instr with
        | Instr.Bin { ty; op; a; b } ->
            if Types.is_float ty then
              V_float (float_bin op (to_float (ev a)) (to_float (ev b)))
            else V_int (int_bin op (to_int (ev a)) (to_int (ev b)))
        | Instr.Una { ty; op; a } ->
            if Types.is_float ty then V_float (float_una op (to_float (ev a)))
            else V_int (int_una op (to_int (ev a)))
        | Instr.Fma { a; b; c; _ } ->
            V_float ((to_float (ev a) *. to_float (ev b)) +. to_float (ev c))
        | Instr.Cmp { ty; op; a; b } ->
            if Types.is_float ty then
              V_bool (float_cmp op (to_float (ev a)) (to_float (ev b)))
            else
              V_bool
                (float_cmp op
                   (float_of_int (to_int (ev a)))
                   (float_of_int (to_int (ev b))))
        | Instr.Select { ty; cond; if_true; if_false } ->
            let arm = if to_bool (ev cond) then if_true else if_false in
            if Types.is_float ty then V_float (to_float (ev arm))
            else V_int (to_int (ev arm))
        | Instr.Load { ty; addr } ->
            let arr, i = resolve_addr env idx regs addr in
            if Types.is_float ty then V_float (Env.read_float env arr i)
            else V_int (Env.read_int env arr i)
        | Instr.Store { ty; addr; src } ->
            let arr, i = resolve_addr env idx regs addr in
            (if Types.is_float ty then Env.write_float env arr i (to_float (ev src))
             else Env.write_int env arr i (to_int (ev src)));
            V_int 0
        | Instr.Cast { dst_ty; a; _ } ->
            if Types.is_float dst_ty then V_float (to_float (ev a))
            else V_int (to_int (ev a))
      in
      regs.(pos) <- result;
      match observe with Some f -> f pos result | None -> ())
    k.body;
  List.iteri
    (fun j (r : Kernel.reduction) ->
      accs.(j) <-
        red_combine r.red_op accs.(j)
          (to_float (eval_operand env idx regs r.red_src)))
    k.reductions

let exec_iteration env k ~idx ~accs = exec_body None env k ~idx ~accs

type result = { env : Env.t; reductions : (string * float) list }

(* Iterate a loop nest, calling [f] with complete bindings at each innermost
   iteration. *)
let rec drive env loops bound_idx f =
  match loops with
  | [] -> f bound_idx
  | (l : Kernel.loop) :: rest ->
      let bound = Kernel.trip_bound ~n:env.Env.n l.trip in
      let v = ref l.start in
      while !v < bound do
        drive env rest ((l.var, !v) :: bound_idx) f;
        v := !v + l.step
      done

let run_in ?observe env (k : Kernel.t) =
  let accs = Array.of_list (List.map (fun r -> r.Kernel.red_init) k.reductions) in
  drive env k.loops [] (fun idx -> exec_body observe env k ~idx ~accs);
  List.mapi (fun j (r : Kernel.reduction) -> (r.red_name, accs.(j))) k.reductions

let run ~n (k : Kernel.t) =
  let env = Env.create ~n k in
  let reductions = run_in env k in
  { env; reductions }
