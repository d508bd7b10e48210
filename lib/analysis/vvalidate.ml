(* Well-formedness of the vector IR.

   The cost model counts instruction classes over [Vinstr.vkernel] bodies,
   so a malformed vector body silently corrupts every downstream feature.
   This validator mirrors [Vir.Validate] for the wide IR: SSA-by-position
   register discipline, scalar/vector width discipline across the
   [Sc]/[Vextract]/[Vpack]/[Splat] boundary, element-type agreement (with
   the same numeric-class leniency as the scalar validator), lane and copy
   ranges, and the access-pattern tags of wide memory operations.

   Translation validation against the scalar kernel lives in [Equiv];
   [errors] runs both. *)

open Vir
module Vinstr = Vvect.Vinstr

type width = Wvec | Wsca

type vty = Num of Types.scalar | Mask of Types.scalar

let pass = "vvalidate"

let class_clash a b = Types.is_float a <> Types.is_float b

let check (vk : Vinstr.vkernel) : Diag.t list =
  let k = vk.scalar in
  let kernel = k.Kernel.name in
  let inner = Kernel.innermost k in
  let out = ref [] in
  let err ?pos fmt =
    Printf.ksprintf (fun m -> out := Diag.error ~pass ~kernel ?pos "%s" m :: !out) fmt
  in
  if vk.vf < 2 then err "vectorization factor %d < 2" vk.vf;
  if vk.ic < 1 then err "interleave count %d < 1" vk.ic;
  let vbody = Array.of_list vk.vbody in
  let n = Array.length vbody in
  (* (width, type) of each vbody position; [None] for stores/scatters. *)
  let slot : (width * vty) option array = Array.make n None in
  (* Resolve a register reference appearing inside position [pos]. *)
  let reg_slot pos r =
    if r < 0 || r >= pos then begin
      err ~pos "reads undefined vector-body register v%d" r;
      None
    end
    else slot.(r)
  in
  (* Type of a scalar operand used inside [Sc], [Splat] or [Vpack]; its
     [Reg]s refer to scalar-width vbody positions. *)
  let scalar_operand_ty pos what op =
    match op with
    | Instr.Reg r -> (
        match reg_slot pos r with
        | Some (Wvec, _) ->
            err ~pos "%s reads vector-width v%d in a scalar position" what r;
            None
        | Some (Wsca, t) -> Some t
        | None -> None)
    | Instr.Index v ->
        if not (List.mem v (Kernel.loop_vars k)) then
          err ~pos "%s reads unknown loop variable %s" what v;
        Some (Num Types.I64)
    | Instr.Param p ->
        if not (List.mem p k.Kernel.params) then
          err ~pos "%s reads undeclared parameter %s" what p;
        None
    | Instr.Imm_int _ -> None
    | Instr.Imm_float _ -> Some (Num Types.F32)
  in
  (* A [Splat] source must be innermost-loop-invariant: anything else would
     need a genuinely per-lane value (an iota or a loaded vector). *)
  let splat_ty pos op =
    (match op with
    | Instr.Index v when String.equal v inner.Kernel.var ->
        err ~pos "splats the innermost induction variable %s (needs an iota)" v
    | _ -> ());
    scalar_operand_ty pos "splat" op
  in
  let voperand_ty pos what (op : Vinstr.voperand) =
    match op with
    | Vinstr.V r -> (
        match reg_slot pos r with
        | Some (Wsca, _) ->
            err ~pos "%s reads scalar-width v%d in a vector position" what r;
            None
        | Some (Wvec, t) -> Some t
        | None -> None)
    | Vinstr.Splat s -> splat_ty pos s
  in
  let expect_num pos what want ty_opt =
    match ty_opt with
    | Some (Num t) when class_clash t want ->
        err ~pos "%s has type %s, expected %s" what (Types.to_string t)
          (Types.to_string want)
    | Some (Mask _) ->
        err ~pos "%s is a mask, expected %s" what (Types.to_string want)
    | Some (Num _) | None -> ()
  in
  let expect_vnum pos what want op = expect_num pos what want (voperand_ty pos what op) in
  let expect_vmask pos what op =
    match voperand_ty pos what op with
    | Some (Mask _) -> ()
    | Some (Num t) ->
        err ~pos "%s has type %s, expected a mask" what (Types.to_string t)
    | None -> err ~pos "%s must be a comparison result" what
  in
  let expect_vint pos what op =
    match voperand_ty pos what op with
    | Some (Num t) when Types.is_float t ->
        err ~pos "%s has float type %s, expected an integer index vector" what
          (Types.to_string t)
    | Some (Mask _) -> err ~pos "%s is a mask, expected an index vector" what
    | Some (Num _) | None -> ()
  in
  let check_array pos arr ty =
    match Kernel.find_array k arr with
    | None -> err ~pos "accesses undeclared array %s" arr
    | Some decl ->
        if not (Types.equal_scalar decl.arr_ty ty) then
          err ~pos "accesses %s as %s but it is declared %s" arr
            (Types.to_string ty)
            (Types.to_string decl.arr_ty)
  in
  let check_dims pos arr dims =
    (match Kernel.find_array k arr with
    | Some { arr_extent = Kernel.Quad; _ } when List.length dims <> 2 ->
        err ~pos "2-d array %s accessed with %d subscript(s)" arr
          (List.length dims)
    | Some { arr_extent = Kernel.Lin _; _ } when List.length dims <> 1 ->
        err ~pos "1-d array %s accessed with %d subscripts" arr
          (List.length dims)
    | Some _ | None -> ());
    List.iter
      (fun (d : Instr.dim) ->
        List.iter
          (fun (v, _) ->
            if not (List.mem v (Kernel.loop_vars k)) then
              err ~pos "subscripts unknown loop variable %s" v)
          d.Instr.terms;
        List.iter
          (fun (p, _) ->
            if not (List.mem p k.Kernel.params) then
              err ~pos "subscripts undeclared parameter %s" p)
          d.Instr.pterms)
      dims
  in
  (* The access tag must agree with the stride the subscripts actually
     have; a [Contig] tag on a strided address would execute wrong lanes. *)
  let check_access pos arr dims (access : Vinstr.access) =
    let addr = Instr.Affine { arr; dims } in
    let expected =
      match Kernel.access_stride k addr with
      | Kernel.Sconst 1 -> Some Vinstr.Contig
      | Kernel.Sconst (-1) -> Some Vinstr.Rev
      | Kernel.Sconst 0 -> None (* invariant: must not be a wide access *)
      | Kernel.Sconst s -> Some (Vinstr.Strided s)
      | Kernel.Srow _ -> Some Vinstr.Row
      | Kernel.Sindirect -> None
    in
    match expected with
    | None ->
        err ~pos "wide access to %s has no per-lane stride (invariant address)"
          arr
    | Some e ->
        if e <> access then
          err ~pos "access to %s tagged %s but subscripts have %s stride" arr
            (Vinstr.access_to_string access)
            (Vinstr.access_to_string e)
  in
  (* Type-check one scalar instruction hosted in an [Sc] slot. *)
  let check_sc pos (instr : Instr.t) : vty option =
    let op_ty what op = scalar_operand_ty pos what op in
    let expect what want op = expect_num pos what want (op_ty what op) in
    let check_sc_addr ty addr =
      (match addr with
      | Instr.Affine { arr; dims } ->
          check_array pos arr ty;
          check_dims pos arr dims
      | Instr.Indirect { arr; idx } -> (
          check_array pos arr ty;
          match op_ty "indirect index" idx with
          | Some (Num t) when Types.is_float t ->
              err ~pos "indirect index is a float"
          | Some (Mask _) -> err ~pos "indirect index is a mask"
          | Some (Num _) | None -> ()))
    in
    match instr with
    | Instr.Bin { ty; op; a; b } ->
        if Op.binop_int_only op && Types.is_float ty then
          err ~pos "%s is integer-only but typed %s" (Op.binop_to_string op)
            (Types.to_string ty);
        expect "lhs" ty a;
        expect "rhs" ty b;
        Some (Num ty)
    | Instr.Una { ty; op; a } ->
        if Op.unop_float_only op && Types.is_int ty then
          err ~pos "%s is float-only but typed %s" (Op.unop_to_string op)
            (Types.to_string ty);
        expect "operand" ty a;
        Some (Num ty)
    | Instr.Fma { ty; a; b; c } ->
        if Types.is_int ty then err ~pos "integer fma";
        expect "a" ty a;
        expect "b" ty b;
        expect "c" ty c;
        Some (Num ty)
    | Instr.Cmp { ty; a; b; _ } ->
        expect "lhs" ty a;
        expect "rhs" ty b;
        Some (Mask ty)
    | Instr.Select { ty; cond; if_true; if_false } ->
        (match op_ty "condition" cond with
        | Some (Mask _) -> ()
        | Some (Num t) ->
            err ~pos "condition has type %s, expected a mask" (Types.to_string t)
        | None -> err ~pos "condition must be a comparison result");
        expect "true arm" ty if_true;
        expect "false arm" ty if_false;
        Some (Num ty)
    | Instr.Load { ty; addr } ->
        check_sc_addr ty addr;
        Some (Num ty)
    | Instr.Store { ty; addr; src } ->
        check_sc_addr ty addr;
        expect "stored value" ty src;
        None
    | Instr.Cast { src_ty; dst_ty; a } ->
        expect "operand" src_ty a;
        Some (Num dst_ty)
  in
  Array.iteri
    (fun pos (vi : Vinstr.t) ->
      let result : (width * vty) option =
        match vi with
        | Vinstr.Vbin { ty; op; a; b } ->
            if Op.binop_int_only op && Types.is_float ty then
              err ~pos "%s is integer-only but typed %s"
                (Op.binop_to_string op) (Types.to_string ty);
            expect_vnum pos "lhs" ty a;
            expect_vnum pos "rhs" ty b;
            Some (Wvec, Num ty)
        | Vinstr.Vuna { ty; op; a } ->
            if Op.unop_float_only op && Types.is_int ty then
              err ~pos "%s is float-only but typed %s" (Op.unop_to_string op)
                (Types.to_string ty);
            if Op.unop_int_only op && Types.is_float ty then
              err ~pos "%s is integer-only but typed %s"
                (Op.unop_to_string op) (Types.to_string ty);
            expect_vnum pos "operand" ty a;
            Some (Wvec, Num ty)
        | Vinstr.Vfma { ty; a; b; c } ->
            if Types.is_int ty then err ~pos "integer vector fma";
            expect_vnum pos "a" ty a;
            expect_vnum pos "b" ty b;
            expect_vnum pos "c" ty c;
            Some (Wvec, Num ty)
        | Vinstr.Vcmp { ty; a; b; _ } ->
            expect_vnum pos "lhs" ty a;
            expect_vnum pos "rhs" ty b;
            Some (Wvec, Mask ty)
        | Vinstr.Vselect { ty; cond; if_true; if_false } ->
            expect_vmask pos "condition" cond;
            expect_vnum pos "true arm" ty if_true;
            expect_vnum pos "false arm" ty if_false;
            Some (Wvec, Num ty)
        | Vinstr.Vload { ty; arr; dims; access } ->
            check_array pos arr ty;
            check_dims pos arr dims;
            check_access pos arr dims access;
            Some (Wvec, Num ty)
        | Vinstr.Vstore { ty; arr; dims; access; src } ->
            check_array pos arr ty;
            check_dims pos arr dims;
            check_access pos arr dims access;
            expect_vnum pos "stored value" ty src;
            None
        | Vinstr.Vgather { ty; arr; idx } ->
            check_array pos arr ty;
            expect_vint pos "gather index" idx;
            Some (Wvec, Num ty)
        | Vinstr.Vscatter { ty; arr; idx; src } ->
            check_array pos arr ty;
            expect_vint pos "scatter index" idx;
            expect_vnum pos "scattered value" ty src;
            None
        | Vinstr.Viota { ty } ->
            if Types.is_float ty then
              err ~pos "iota of float type %s" (Types.to_string ty);
            Some (Wvec, Num ty)
        | Vinstr.Vcast { src_ty; dst_ty; a } ->
            expect_vnum pos "operand" src_ty a;
            Some (Wvec, Num dst_ty)
        | Vinstr.Vpack { ty; srcs } ->
            if Array.length srcs <> vk.vf then
              err ~pos "pack of %d sources at VF %d" (Array.length srcs) vk.vf;
            let masks = ref 0 and nums = ref 0 in
            Array.iteri
              (fun i src ->
                match scalar_operand_ty pos (Printf.sprintf "pack source %d" i)
                        src
                with
                | Some (Mask _) -> incr masks
                | Some (Num t) ->
                    incr nums;
                    if class_clash t ty then
                      err ~pos "pack source %d has type %s, expected %s" i
                        (Types.to_string t) (Types.to_string ty)
                | None -> ())
              srcs;
            if !masks > 0 && !nums > 0 then
              err ~pos "pack mixes mask and numeric sources";
            Some (Wvec, if !masks > 0 then Mask ty else Num ty)
        | Vinstr.Vextract { ty; src; lane } ->
            if lane < 0 || lane >= vk.vf then
              err ~pos "extracts lane %d outside [0, %d)" lane vk.vf;
            let src_ty = voperand_ty pos "extract source" src in
            (match src_ty with
            | Some (Num t) when class_clash t ty ->
                err ~pos "extracts %s lane from a %s vector"
                  (Types.to_string ty) (Types.to_string t)
            | _ -> ());
            let vty =
              match src_ty with Some (Mask _) -> Mask ty | _ -> Num ty
            in
            Some (Wsca, vty)
        | Vinstr.Sc { copy; instr } ->
            let span = vk.vf * vk.ic in
            if copy < 0 || copy >= span then
              err ~pos "scalar copy index %d outside [0, %d = vf*ic)" copy span;
            Option.map (fun t -> (Wsca, t)) (check_sc pos instr)
      in
      slot.(pos) <- result)
    vbody;
  (* Reductions accumulate one full vector per iteration. *)
  List.iter
    (fun (vr : Vinstr.vreduction) ->
      let what = Printf.sprintf "reduction %s" vr.vr_name in
      (match voperand_ty n what vr.vr_src with
      | Some (Mask _) -> err "%s accumulates a mask" what
      | Some (Num t) when class_clash t vr.vr_ty ->
          err "%s: source type %s vs accumulator %s" what (Types.to_string t)
            (Types.to_string vr.vr_ty)
      | Some (Num _) | None -> ());
      if Types.is_int vr.vr_ty && vr.vr_op = Op.Rprod then
        err "%s: integer product reductions are not supported" what)
    vk.vreductions;
  List.rev !out

(* Structural checks plus translation validation against the scalar
   kernel. *)
let errors (vk : Vinstr.vkernel) : Diag.t list =
  let structural = check vk in
  (* Translation validation only makes sense on a structurally sound body. *)
  if structural <> [] then structural else structural @ Equiv.vkernel_diags vk

