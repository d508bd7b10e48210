(* Imperative builder eDSL for kernels.  Arrays are registered on first use
   and their extents inferred from the subscripts seen, so a TSVC pattern
   reads close to its C original:

     let s000 =
       let b = make "s000" ~descr:"a[i] = b[i] + 1" in
       let i = loop b "i" Tn in
       let bi = load b "b" [ ix i ] in
       store b "a" [ ix i ] (addf b bi (cf 1.0));
       finish b
*)

type array_info = {
  mutable ai_ty : Types.scalar;
  mutable ai_ndims : int;
  mutable ai_scale : int;  (* max sum of |coeffs| seen in a subscript *)
  mutable ai_off : int;  (* max |constant offset| seen *)
  mutable ai_role : Kernel.array_role;
  mutable ai_extent : Kernel.extent option;  (* explicit override *)
}

type t = {
  b_name : string;
  b_descr : string;
  mutable b_loops : Kernel.loop list;  (* reversed *)
  mutable b_body : Instr.t list;  (* reversed *)
  mutable b_nregs : int;
  b_arrays : (string, array_info) Hashtbl.t;
  mutable b_array_order : string list;  (* reversed *)
  mutable b_params : string list;  (* reversed *)
  mutable b_reds : Kernel.reduction list;  (* reversed *)
}

let make ?(descr = "") name =
  {
    b_name = name;
    b_descr = descr;
    b_loops = [];
    b_body = [];
    b_nregs = 0;
    b_arrays = Hashtbl.create 8;
    b_array_order = [];
    b_params = [];
    b_reds = [];
  }

let loop b ?(start = 0) ?(step = 1) var trip =
  if step <= 0 then invalid_arg "Builder.loop: step must be positive";
  b.b_loops <- { Kernel.var; trip; start; step } :: b.b_loops;
  Instr.Index var

let param b name =
  if not (List.mem name b.b_params) then b.b_params <- name :: b.b_params;
  Instr.Param name

(* Immediates. *)
let ci v = Instr.Imm_int v
let cf v = Instr.Imm_float v

(* Subscript construction.  [ix i] is plain [i]; scale/offset variants cover
   a[2i], a[i+1], a[(n-1)-i] and friends.  [ix_vars] handles multi-variable
   subscripts like a[i - j]. *)
let var_of = function
  | Instr.Index v -> v
  | _ -> invalid_arg "Builder: subscript operand must be a loop index"

let ix ?(scale = 1) ?(off = 0) op =
  { Instr.terms = [ (var_of op, scale) ]; pterms = []; off; rel_n = false }

let ix_const ?(rel_n = false) off = Instr.dim_const ~rel_n off

(* (n-1) - i: reversed traversal. *)
let ix_rev ?(off = 0) op =
  { Instr.terms = [ (var_of op, -1) ]; pterms = []; off; rel_n = true }

let ix_vars ?(off = 0) terms =
  { Instr.terms = List.map (fun (op, c) -> (var_of op, c)) terms;
    pterms = []; off; rel_n = false }

(* Add integer-parameter terms to a subscript, e.g. a[i + k]. *)
let ix_plus_param b d (name, c) =
  ignore (param b name);
  { d with Instr.pterms = (name, c) :: d.Instr.pterms }

(* Array registration and subscript bookkeeping. *)
let array_info b ?(ty = Types.F32) ?(role = Kernel.Data) name =
  match Hashtbl.find_opt b.b_arrays name with
  | Some info -> info
  | None ->
      let info =
        { ai_ty = ty; ai_ndims = 1; ai_scale = 1; ai_off = 0; ai_role = role;
          ai_extent = None }
      in
      Hashtbl.add b.b_arrays name info;
      b.b_array_order <- name :: b.b_array_order;
      info

let declare b ?(role = Kernel.Data) ?extent name =
  let info = array_info b ~role name in
  info.ai_ty <- Types.F32;
  info.ai_role <- role;
  info.ai_extent <- extent

let note_dims info (dims : Instr.dim list) =
  info.ai_ndims <- max info.ai_ndims (List.length dims);
  List.iter
    (fun (d : Instr.dim) ->
      let scale =
        List.fold_left (fun acc (_, c) -> acc + abs c) 0 d.terms
      in
      info.ai_scale <- max info.ai_scale (max 1 scale);
      info.ai_off <- max info.ai_off (abs d.off))
    dims

let emit b instr =
  b.b_body <- instr :: b.b_body;
  let r = b.b_nregs in
  b.b_nregs <- b.b_nregs + 1;
  Instr.Reg r

(* Memory operations.  Loads/stores on [Data] arrays default to F32; use ~ty
   for other element types.  [load_ix]/[store_ix] address a data array through
   a computed integer index (gather/scatter). *)
let load b ?(ty = Types.F32) name dims =
  let info = array_info b ~ty name in
  note_dims info dims;
  emit b (Instr.Load { ty; addr = Instr.Affine { arr = name; dims } })

let store b ?(ty = Types.F32) name dims src =
  let info = array_info b ~ty name in
  note_dims info dims;
  ignore (emit b (Instr.Store { ty; addr = Instr.Affine { arr = name; dims }; src }))

(* Load an index value from an [Idx] array (always I32). *)
let load_index b name dims =
  let info = array_info b ~ty:Types.I32 ~role:Kernel.Idx name in
  info.ai_role <- Kernel.Idx;
  note_dims info dims;
  emit b (Instr.Load { ty = Types.I32; addr = Instr.Affine { arr = name; dims } })

let load_ix b ?(ty = Types.F32) name idx =
  ignore (array_info b ~ty name);
  emit b (Instr.Load { ty; addr = Instr.Indirect { arr = name; idx } })

let store_ix b ?(ty = Types.F32) name idx src =
  ignore (array_info b ~ty name);
  ignore
    (emit b (Instr.Store { ty; addr = Instr.Indirect { arr = name; idx }; src }))

(* Arithmetic.  The [*f] family is F32 (the dominant TSVC type); the [*i]
   family is I32; [bin]/[una] take an explicit type. *)
let bin b ty op x y = emit b (Instr.Bin { ty; op; a = x; b = y })
let una b ty op x = emit b (Instr.Una { ty; op; a = x })
let fma b ?(ty = Types.F32) x y z = emit b (Instr.Fma { ty; a = x; b = y; c = z })
let cmp b ?(ty = Types.F32) op x y = emit b (Instr.Cmp { ty; op; a = x; b = y })

let select b ?(ty = Types.F32) cond if_true if_false =
  emit b (Instr.Select { ty; cond; if_true; if_false })

let cast b ~from_ ~to_ x = emit b (Instr.Cast { src_ty = from_; dst_ty = to_; a = x })

let addf b x y = bin b Types.F32 Op.Add x y
let subf b x y = bin b Types.F32 Op.Sub x y
let mulf b x y = bin b Types.F32 Op.Mul x y
let divf b x y = bin b Types.F32 Op.Div x y
let minf b x y = bin b Types.F32 Op.Min x y
let maxf b x y = bin b Types.F32 Op.Max x y
let negf b x = una b Types.F32 Op.Neg x
let absf b x = una b Types.F32 Op.Abs x
let sqrtf b x = una b Types.F32 Op.Sqrt x

let addi b x y = bin b Types.I32 Op.Add x y
let muli b x y = bin b Types.I32 Op.Mul x y

let reduce b ?(ty = Types.F32) ?(init = 0.0) name op src =
  b.b_reds <-
    { Kernel.red_name = name; red_ty = ty; red_op = op; red_src = src;
      red_init = init }
    :: b.b_reds

let finish b : Kernel.t =
  if b.b_loops = [] then
    invalid_arg (Printf.sprintf "Builder.finish: kernel %s has no loops" b.b_name);
  let arrays =
    List.rev_map
      (fun name ->
        let info = Hashtbl.find b.b_arrays name in
        let extent =
          match info.ai_extent with
          | Some e -> e
          | None ->
              if info.ai_ndims >= 2 then Kernel.Quad
              else Kernel.Lin (info.ai_scale, info.ai_off + 1)
        in
        { Kernel.arr_name = name; arr_ty = info.ai_ty; arr_extent = extent;
          arr_role = info.ai_role })
      b.b_array_order
  in
  {
    Kernel.name = b.b_name;
    descr = b.b_descr;
    loops = List.rev b.b_loops;
    body = List.rev b.b_body;
    reductions = List.rev b.b_reds;
    arrays;
    params = List.rev b.b_params;
  }
