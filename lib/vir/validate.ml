(* Structural and type well-formedness of kernels.  Returns a list of
   human-readable violations; the test suite asserts it is empty for every
   kernel in the TSVC registry and for everything the generators produce. *)

type value_ty = Scalar of Types.scalar | Mask of Types.scalar

let errors (k : Kernel.t) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let loop_vars = Kernel.loop_vars k in
  (* Loop structure. *)
  if k.loops = [] then err "kernel has no loops";
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (l : Kernel.loop) ->
      if Hashtbl.mem seen l.var then err "duplicate loop variable %s" l.var;
      Hashtbl.replace seen l.var ();
      if l.step <= 0 then err "loop %s has non-positive step %d" l.var l.step;
      if l.start < 0 then err "loop %s has negative start %d" l.var l.start)
    k.loops;
  (* Register types, assigned as we walk the body. *)
  let body = Array.of_list k.body in
  let reg_ty = Array.make (Array.length body) None in
  let operand_ty pos = function
    | Instr.Reg r ->
        if r < 0 || r >= pos then (
          err "instruction %d reads undefined register r%d" pos r;
          None)
        else reg_ty.(r)
    | Instr.Index v ->
        if not (List.mem v loop_vars) then
          err "instruction %d reads unknown loop variable %s" pos v;
        Some (Scalar Types.I64)
    | Instr.Param _ -> None (* parameters are polymorphic scalars *)
    | Instr.Imm_int _ -> None (* immediates adapt to context *)
    | Instr.Imm_float _ -> Some (Scalar Types.F32)
  in
  let expect_scalar pos what want op =
    match operand_ty pos op with
    | Some (Scalar t) when not (Types.equal_scalar t want) ->
        (* Allow free width changes within a numeric class: subscripts mix
           I32 loads with I64 index arithmetic. *)
        if Types.is_float t <> Types.is_float want then
          err "instruction %d: %s has type %s, expected %s" pos what
            (Types.to_string t) (Types.to_string want)
    | Some (Mask _) ->
        err "instruction %d: %s is a mask, expected %s" pos what
          (Types.to_string want)
    | Some (Scalar _) | None -> ()
  in
  let expect_mask pos what op =
    match operand_ty pos op with
    | Some (Mask _) -> ()
    | Some (Scalar t) ->
        err "instruction %d: %s has type %s, expected a mask" pos what
          (Types.to_string t)
    | None -> err "instruction %d: %s must be a comparison result" pos what
  in
  let check_dim pos (d : Instr.dim) =
    List.iter
      (fun (v, c) ->
        if not (List.mem v loop_vars) then
          err "instruction %d subscripts unknown loop variable %s" pos v;
        if c = 0 then err "instruction %d has zero coefficient on %s" pos v)
      d.terms;
    List.iter
      (fun (p, _) ->
        if not (List.mem p k.params) then
          err "instruction %d subscripts undeclared parameter %s" pos p)
      d.pterms
  in
  let check_addr pos ty addr =
    let arr = Instr.addr_array addr in
    (match Kernel.find_array k arr with
    | None -> err "instruction %d accesses undeclared array %s" pos arr
    | Some decl ->
        if not (Types.equal_scalar decl.arr_ty ty) then
          err "instruction %d accesses %s as %s but it is declared %s" pos arr
            (Types.to_string ty)
            (Types.to_string decl.arr_ty);
        (match (addr, decl.arr_extent) with
        | Instr.Affine { dims; _ }, Kernel.Quad when List.length dims <> 2 ->
            err "instruction %d: 2-d array %s accessed with %d subscript(s)" pos
              arr (List.length dims)
        | Instr.Affine { dims; _ }, Kernel.Lin _ when List.length dims <> 1 ->
            err "instruction %d: 1-d array %s accessed with %d subscripts" pos
              arr (List.length dims)
        | (Instr.Affine _ | Instr.Indirect _), _ -> ()));
    match addr with
    | Instr.Affine { dims; _ } -> List.iter (check_dim pos) dims
    | Instr.Indirect { idx; _ } -> (
        match operand_ty pos idx with
        | Some (Scalar t) when Types.is_float t ->
            err "instruction %d: indirect index is a float" pos
        | Some (Mask _) -> err "instruction %d: indirect index is a mask" pos
        | Some (Scalar _) | None -> ())
  in
  Array.iteri
    (fun pos instr ->
      (match instr with
      | Instr.Bin { ty; op; a; b } ->
          if Op.binop_int_only op && Types.is_float ty then
            err "instruction %d: %s is integer-only but typed %s" pos
              (Op.binop_to_string op) (Types.to_string ty);
          expect_scalar pos "lhs" ty a;
          expect_scalar pos "rhs" ty b
      | Instr.Una { ty; op; a } ->
          if Op.unop_float_only op && Types.is_int ty then
            err "instruction %d: %s is float-only but typed %s" pos
              (Op.unop_to_string op) (Types.to_string ty);
          if Op.unop_int_only op && Types.is_float ty then
            err "instruction %d: %s is integer-only but typed %s" pos
              (Op.unop_to_string op) (Types.to_string ty);
          expect_scalar pos "operand" ty a
      | Instr.Fma { ty; a; b; c } ->
          if Types.is_int ty then err "instruction %d: integer fma" pos;
          expect_scalar pos "a" ty a;
          expect_scalar pos "b" ty b;
          expect_scalar pos "c" ty c
      | Instr.Cmp { ty; a; b; _ } ->
          expect_scalar pos "lhs" ty a;
          expect_scalar pos "rhs" ty b
      | Instr.Select { ty; cond; if_true; if_false } ->
          expect_mask pos "condition" cond;
          expect_scalar pos "true arm" ty if_true;
          expect_scalar pos "false arm" ty if_false
      | Instr.Load { ty; addr } -> check_addr pos ty addr
      | Instr.Store { ty; addr; src } ->
          check_addr pos ty addr;
          expect_scalar pos "stored value" ty src
      | Instr.Cast { src_ty; a; _ } -> expect_scalar pos "operand" src_ty a);
      reg_ty.(pos) <-
        (match instr with
        | Instr.Cmp { ty; _ } -> Some (Mask ty)
        | _ -> Option.map (fun t -> Scalar t) (Instr.result_ty instr)))
    body;
  (* Reductions. *)
  List.iter
    (fun (r : Kernel.reduction) ->
      (match r.red_src with
      | Instr.Reg reg when reg >= Array.length body ->
          err "reduction %s reads undefined register r%d" r.red_name reg
      | Instr.Reg reg -> (
          match reg_ty.(reg) with
          | Some (Mask _) -> err "reduction %s accumulates a mask" r.red_name
          | Some (Scalar t) when Types.is_float t <> Types.is_float r.red_ty ->
              err "reduction %s: source type %s vs accumulator %s" r.red_name
                (Types.to_string t) (Types.to_string r.red_ty)
          | Some (Scalar _) | None -> ())
      | Instr.Index v when not (List.mem v loop_vars) ->
          err "reduction %s reads unknown loop variable %s" r.red_name v
      | Instr.Index _ | Instr.Param _ | Instr.Imm_int _ | Instr.Imm_float _ ->
          ());
      if Types.is_int r.red_ty && r.red_op = Op.Rprod then
        err "reduction %s: integer product reductions are not supported"
          r.red_name)
    k.reductions;
  (* Every kernel must observably do something. *)
  if (not (List.exists Instr.is_store k.body)) && k.reductions = [] then
    err "kernel has no stores and no reductions";
  List.rev !errs


let check_exn k =
  match errors k with
  | [] -> ()
  | es ->
      invalid_arg
        (Printf.sprintf "invalid kernel %s:\n  %s" k.Kernel.name
           (String.concat "\n  " es))
