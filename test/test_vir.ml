(* Unit tests for the IR: types, ops, builder, kernel helpers, validator. *)

open Vir
module B = Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A minimal valid kernel used across cases. *)
let simple () =
  let b = B.make "t" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.addf b x (B.cf 1.0));
  B.finish b

(* --- types ------------------------------------------------------------- *)

let test_type_sizes () =
  check_int "i32" 4 (Types.size_bytes Types.I32);
  check_int "f32" 4 (Types.size_bytes Types.F32);
  check_int "i64" 8 (Types.size_bytes Types.I64);
  check_int "f64" 8 (Types.size_bytes Types.F64)

let test_type_classes () =
  check "f32 float" true (Types.is_float Types.F32);
  check "i32 int" true (Types.is_int Types.I32);
  check "exclusive" true
    (List.for_all (fun t -> Types.is_float t <> Types.is_int t) Types.all)

let test_type_names () =
  check_str "f64" "f64" (Types.to_string Types.F64);
  check_int "all types distinct names" 4
    (List.length (List.sort_uniq compare (List.map Types.to_string Types.all)))

(* --- ops ---------------------------------------------------------------- *)

let test_op_commutativity () =
  check "add" true (Op.binop_commutative Op.Add);
  check "sub" false (Op.binop_commutative Op.Sub);
  check "div" false (Op.binop_commutative Op.Div);
  check "xor" true (Op.binop_commutative Op.Xor)

let test_op_typing () =
  check "shl int-only" true (Op.binop_int_only Op.Shl);
  check "add not int-only" false (Op.binop_int_only Op.Add);
  check "sqrt float-only" true (Op.unop_float_only Op.Sqrt);
  check "not int-only" true (Op.unop_int_only Op.Not)

let test_op_names_unique () =
  check_int "binops" (List.length Op.all_binops)
    (List.length (List.sort_uniq compare (List.map Op.binop_to_string Op.all_binops)));
  check_int "redops" (List.length Op.all_redops)
    (List.length (List.sort_uniq compare (List.map Op.redop_to_string Op.all_redops)))

(* --- instr -------------------------------------------------------------- *)

let test_instr_operands () =
  let i =
    Instr.Fma { ty = Types.F32; a = Instr.Reg 0; b = Instr.Reg 1; c = Instr.Imm_float 2.0 }
  in
  check_int "fma reads 3" 3 (List.length (Instr.operands i));
  check_int "fma regs" 2 (List.length (Instr.reg_uses i))

let test_instr_indirect_operands () =
  let i =
    Instr.Load { ty = Types.F32; addr = Instr.Indirect { arr = "a"; idx = Instr.Reg 7 } }
  in
  check_int "gather idx counted" 1 (List.length (Instr.reg_uses i));
  check "is load" true (Instr.is_load i);
  check "accessed array" true (Instr.accessed_array i = Some "a")

let test_instr_result_ty () =
  let st =
    Instr.Store
      { ty = Types.F32;
        addr = Instr.Affine { arr = "a"; dims = [ Instr.dim_const 0 ] };
        src = Instr.Imm_float 0.0 }
  in
  check "store no result" true (Instr.result_ty st = None);
  let c =
    Instr.Cast { src_ty = Types.I64; dst_ty = Types.F32; a = Instr.Reg 0 }
  in
  check "cast result" true (Instr.result_ty c = Some Types.F32)

let test_shift_dim () =
  let d = { Instr.terms = [ ("i", 2) ]; pterms = []; off = 1; rel_n = false } in
  let d' = Instr.shift_dim "i" 3 d in
  check_int "off shifted by coeff*delta" 7 d'.Instr.off;
  let d'' = Instr.shift_dim "j" 5 d in
  check_int "other var untouched" 1 d''.Instr.off

let test_map_operands () =
  let i = Instr.Bin { ty = Types.F32; op = Op.Add; a = Instr.Reg 0; b = Instr.Reg 1 } in
  let i' =
    Instr.map_operands
      (function Instr.Reg r -> Instr.Reg (r + 10) | o -> o)
      i
  in
  check "remapped" true (Instr.reg_uses i' = [ 10; 11 ])

(* --- kernel helpers ------------------------------------------------------ *)

let test_trip_bounds () =
  check_int "Tn" 100 (Kernel.trip_bound ~n:100 Kernel.Tn);
  check_int "Tn/2" 50 (Kernel.trip_bound ~n:100 (Kernel.Tn_div 2));
  check_int "Tn-3" 97 (Kernel.trip_bound ~n:100 (Kernel.Tn_minus 3));
  check_int "Tn2" 10 (Kernel.trip_bound ~n:100 Kernel.Tn2);
  check_int "const" 7 (Kernel.trip_bound ~n:100 (Kernel.Tconst 7))

let test_isqrt () =
  check_int "isqrt 0" 0 (Kernel.isqrt 0);
  check_int "isqrt 1" 1 (Kernel.isqrt 1);
  check_int "isqrt 99" 9 (Kernel.isqrt 99);
  check_int "isqrt 100" 10 (Kernel.isqrt 100);
  check_int "isqrt 32000" 178 (Kernel.isqrt 32000)

let test_iterations () =
  let l = { Kernel.var = "i"; trip = Kernel.Tn; start = 1; step = 2 } in
  check_int "start 1 step 2 over 10" 5 (Kernel.iterations ~n:10 l);
  let l2 = { l with start = 10 } in
  check_int "empty loop" 0 (Kernel.iterations ~n:5 l2)

let test_access_stride () =
  let k = simple () in
  let contig = Instr.Affine { arr = "a"; dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ] } in
  check "contig" true (Kernel.access_stride k contig = Kernel.Sconst 1);
  let rev = Instr.Affine { arr = "a"; dims = [ { Instr.terms = [ ("i", -1) ]; pterms = []; off = 0; rel_n = true } ] } in
  check "reverse" true (Kernel.access_stride k rev = Kernel.Sconst (-1));
  let ind = Instr.Indirect { arr = "a"; idx = Instr.Reg 0 } in
  check "indirect" true (Kernel.access_stride k ind = Kernel.Sindirect)

let test_access_stride_2d () =
  let b = B.make "t2d" in
  let j = B.loop b "j" Kernel.Tn2 in
  let i = B.loop b "i" Kernel.Tn2 in
  let x = B.load b "aa" [ B.ix j; B.ix i ] in
  B.store b "bb" [ B.ix i; B.ix j ] x;
  let k = B.finish b in
  let load_addr, store_addr =
    match k.Kernel.body with
    | [ Instr.Load { addr = la; _ }; Instr.Store { addr = sa; _ } ] -> (la, sa)
    | _ -> Alcotest.fail "unexpected body"
  in
  check "row-major inner col is contig" true
    (Kernel.access_stride k load_addr = Kernel.Sconst 1);
  check "transposed store walks rows" true
    (Kernel.access_stride k store_addr = Kernel.Srow 1)

let test_footprint () =
  let k = simple () in
  (* two f32 arrays of ~n elements *)
  let fp = Kernel.footprint_bytes ~n:1000 k in
  check "footprint about 8KB" true (fp >= 8000 && fp <= 8200)

let test_total_iterations () =
  let b = B.make "nest" in
  let j = B.loop b "j" Kernel.Tn2 in
  let i = B.loop b "i" Kernel.Tn2 in
  B.store b "aa" [ B.ix j; B.ix i ] (B.cf 0.0);
  let k = B.finish b in
  check_int "n2*n2" 100 (Kernel.total_iterations ~n:100 k)

(* --- builder ------------------------------------------------------------ *)

let test_builder_registers () =
  let b = B.make "regs" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let y = B.addf b x x in
  check "ssa positions" true (x = Instr.Reg 0 && y = Instr.Reg 1)

let test_builder_array_inference () =
  let b = B.make "inf" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix ~off:3 i ] in
  B.store b "a" [ B.ix ~scale:2 i ] x;
  let k = B.finish b in
  let decl name = Option.get (Kernel.find_array k name) in
  check "offset widens extent" true
    ((decl "b").Kernel.arr_extent = Kernel.Lin (1, 4));
  check "scale widens extent" true
    ((decl "a").Kernel.arr_extent = Kernel.Lin (2, 1))

let test_builder_2d_inference () =
  let b = B.make "inf2" in
  let j = B.loop b "j" Kernel.Tn2 in
  let i = B.loop b "i" Kernel.Tn2 in
  B.store b "aa" [ B.ix j; B.ix i ] (B.cf 0.0);
  let k = B.finish b in
  check "2-d arrays become Quad" true
    ((Option.get (Kernel.find_array k "aa")).Kernel.arr_extent = Kernel.Quad)

let test_builder_index_array_role () =
  let b = B.make "idx" in
  let i = B.loop b "i" Kernel.Tn in
  let ix = B.load_index b "ip" [ B.ix i ] in
  B.store_ix b "a" ix (B.cf 1.0);
  let k = B.finish b in
  check "ip has Idx role" true
    ((Option.get (Kernel.find_array k "ip")).Kernel.arr_role = Kernel.Idx)

let test_builder_params_registered () =
  let b = B.make "par" in
  let i = B.loop b "i" Kernel.Tn in
  let s = B.param b "s" in
  B.store b "a" [ B.ix i ] (B.mulf b s (B.cf 2.0));
  let k = B.finish b in
  check "param recorded" true (List.mem "s" k.Kernel.params)

let test_builder_no_loop_fails () =
  let b = B.make "noloop" in
  Alcotest.check_raises "no loops rejected"
    (Invalid_argument "Builder.finish: kernel noloop has no loops")
    (fun () -> ignore (B.finish b))

(* --- validator ---------------------------------------------------------- *)

let test_validate_ok () =
  check "simple kernel valid" true (Validate.errors (simple ()) = [])

let invalid_with body_patch =
  let k = simple () in
  Validate.errors (body_patch k)

let test_validate_bad_register () =
  let errs =
    invalid_with (fun k ->
        { k with
          Kernel.body =
            [ Instr.Bin { ty = Types.F32; op = Op.Add; a = Instr.Reg 5; b = Instr.Imm_float 1.0 };
              Instr.Store
                { ty = Types.F32;
                  addr = Instr.Affine { arr = "a"; dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ] };
                  src = Instr.Reg 0 } ] })
  in
  check "forward reg rejected" true
    (List.exists (fun e -> String.length e > 0) errs)

let test_validate_int_only_op () =
  let errs =
    invalid_with (fun k ->
        { k with
          Kernel.body =
            k.Kernel.body
            @ [ Instr.Bin { ty = Types.F32; op = Op.Xor; a = Instr.Imm_float 1.0; b = Instr.Imm_float 2.0 } ] })
  in
  check "float xor rejected" true (errs <> [])

let test_validate_no_effect () =
  let b = B.make "noop" in
  let i = B.loop b "i" Kernel.Tn in
  ignore (B.load b "b" [ B.ix i ]);
  let k = B.finish b in
  check "no store/reduction rejected" true (Validate.errors k <> [])

let test_validate_mask_usage () =
  let b = B.make "mask" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let c = B.cmp b Op.Gt x (B.cf 0.0) in
  (* Using a mask as an arithmetic operand must be rejected. *)
  let bad = B.addf b c x in
  B.store b "a" [ B.ix i ] bad;
  let k = B.finish b in
  check "mask in arith rejected" true (Validate.errors k <> [])

let test_validate_select_needs_mask () =
  let b = B.make "selbad" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let v = B.select b x x x in
  B.store b "a" [ B.ix i ] v;
  let k = B.finish b in
  check "non-mask condition rejected" true (Validate.errors k <> [])

let test_validate_unknown_loop_var () =
  let errs =
    invalid_with (fun k ->
        { k with
          Kernel.body =
            [ Instr.Load
                { ty = Types.F32;
                  addr = Instr.Affine { arr = "b"; dims = [ { Instr.terms = [ ("z", 1) ]; pterms = []; off = 0; rel_n = false } ] } };
              Instr.Store
                { ty = Types.F32;
                  addr = Instr.Affine { arr = "a"; dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ] };
                  src = Instr.Reg 0 } ] })
  in
  check "unknown loop var" true (errs <> [])

let test_validate_2d_dim_mismatch () =
  let b = B.make "dim" in
  let j = B.loop b "j" Kernel.Tn2 in
  let i = B.loop b "i" Kernel.Tn2 in
  let x = B.load b "aa" [ B.ix j; B.ix i ] in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  (* Patch: access the 2-d array with a single subscript. *)
  let bad =
    { k with
      Kernel.body =
        [ Instr.Load
            { ty = Types.F32;
              addr = Instr.Affine { arr = "aa"; dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ] } };
          Instr.Store
            { ty = Types.F32;
              addr = Instr.Affine { arr = "a"; dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ] };
              src = Instr.Reg 0 } ] }
  in
  check "dim mismatch rejected" true (Validate.errors bad <> [])

let test_validate_duplicate_loop_var () =
  let k = simple () in
  let l = Kernel.innermost k in
  let bad = { k with Kernel.loops = [ l; l ] } in
  check "duplicate loop variable rejected" true (Validate.errors bad <> [])

let test_validate_bad_store_type () =
  (* An I64 store of a F32 value into a F32-declared array. *)
  let errs =
    invalid_with (fun k ->
        { k with
          Kernel.body =
            [ Instr.Load
                { ty = Types.F32;
                  addr = Instr.Affine { arr = "b"; dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ] } };
              Instr.Store
                { ty = Types.I64;
                  addr = Instr.Affine { arr = "a"; dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ] };
                  src = Instr.Reg 0 } ] })
  in
  check "store type mismatch rejected" true (errs <> []);
  (* Storing a mask is also a type error. *)
  let b = B.make "maskstore" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let c = B.cmp b Op.Gt x (B.cf 0.0) in
  B.store b "a" [ B.ix i ] c;
  check "mask store rejected" true (Validate.errors (B.finish b) <> [])

(* --- pretty printer ------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pp_contains_name () =
  let s = Pp.kernel_to_string (simple ()) in
  check "kernel name printed" true (contains s "kernel t");
  check "load printed" true (contains s "load.f32");
  check "store printed" true (contains s "store.f32")

let tests =
  [ Alcotest.test_case "type sizes" `Quick test_type_sizes;
    Alcotest.test_case "type classes" `Quick test_type_classes;
    Alcotest.test_case "type names" `Quick test_type_names;
    Alcotest.test_case "op commutativity" `Quick test_op_commutativity;
    Alcotest.test_case "op typing" `Quick test_op_typing;
    Alcotest.test_case "op names unique" `Quick test_op_names_unique;
    Alcotest.test_case "instr operands" `Quick test_instr_operands;
    Alcotest.test_case "indirect operands" `Quick test_instr_indirect_operands;
    Alcotest.test_case "result types" `Quick test_instr_result_ty;
    Alcotest.test_case "shift dim" `Quick test_shift_dim;
    Alcotest.test_case "map operands" `Quick test_map_operands;
    Alcotest.test_case "trip bounds" `Quick test_trip_bounds;
    Alcotest.test_case "isqrt" `Quick test_isqrt;
    Alcotest.test_case "iterations" `Quick test_iterations;
    Alcotest.test_case "access stride 1-d" `Quick test_access_stride;
    Alcotest.test_case "access stride 2-d" `Quick test_access_stride_2d;
    Alcotest.test_case "footprint" `Quick test_footprint;
    Alcotest.test_case "total iterations" `Quick test_total_iterations;
    Alcotest.test_case "builder registers" `Quick test_builder_registers;
    Alcotest.test_case "builder extent inference" `Quick test_builder_array_inference;
    Alcotest.test_case "builder 2-d inference" `Quick test_builder_2d_inference;
    Alcotest.test_case "builder index role" `Quick test_builder_index_array_role;
    Alcotest.test_case "builder params" `Quick test_builder_params_registered;
    Alcotest.test_case "builder requires loop" `Quick test_builder_no_loop_fails;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate bad register" `Quick test_validate_bad_register;
    Alcotest.test_case "validate int-only op" `Quick test_validate_int_only_op;
    Alcotest.test_case "validate no effect" `Quick test_validate_no_effect;
    Alcotest.test_case "validate mask usage" `Quick test_validate_mask_usage;
    Alcotest.test_case "validate select mask" `Quick test_validate_select_needs_mask;
    Alcotest.test_case "validate unknown var" `Quick test_validate_unknown_loop_var;
    Alcotest.test_case "validate dim mismatch" `Quick test_validate_2d_dim_mismatch;
    Alcotest.test_case "validate duplicate loop var" `Quick test_validate_duplicate_loop_var;
    Alcotest.test_case "validate bad store type" `Quick test_validate_bad_store_type;
    Alcotest.test_case "pp smoke" `Quick test_pp_contains_name ]

(* --- bounds analysis -------------------------------------------------------- *)

let test_bounds_simple_safe () =
  check "simple kernel safe" true (Bounds.check (simple ()) = [])

let test_bounds_catches_offset () =
  (* a[i+5] with extent inferred for off 0: patch the body to overrun. *)
  let k = simple () in
  let bad =
    { k with
      Kernel.body =
        [ Instr.Load
            { ty = Types.F32;
              addr = Instr.Affine { arr = "b"; dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 5; rel_n = false } ] } };
          Instr.Store
            { ty = Types.F32;
              addr = Instr.Affine { arr = "a"; dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ] };
              src = Instr.Reg 0 } ] }
  in
  check "overrun detected" false (Bounds.check bad = []);
  let v = List.hd (Bounds.check bad) in
  check "right array" true (v.Bounds.v_array = "b")

let test_bounds_catches_negative () =
  let b = B.make "neg" in
  let i = B.loop b "i" Kernel.Tn in
  (* i starts at 0, so i-1 underruns. *)
  let x = B.load b "b" [ B.ix ~off:(-1) i ] in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  check "underrun detected" false (Bounds.check k = []);
  check "negative index reported" true
    ((List.hd (Bounds.check k)).Bounds.v_index < 0)

let test_bounds_start_protects () =
  let b = B.make "ok" in
  let i = B.loop b ~start:1 "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix ~off:(-1) i ] in
  B.store b "a" [ B.ix i ] x;
  check "start 1 makes i-1 safe" true (Bounds.check (B.finish b) = [])

let test_bounds_2d () =
  let b = B.make "t2" in
  let j = B.loop b "j" Kernel.Tn2 in
  let i = B.loop b "i" Kernel.Tn2 in
  (* Row offset +1 overruns the last row. *)
  let x = B.load b "aa" [ B.ix ~off:1 j; B.ix i ] in
  B.store b "bb" [ B.ix j; B.ix i ] x;
  check "2-d overrun detected" false (Bounds.check (B.finish b) = [])

let test_bounds_whole_suite () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      match Bounds.check e.kernel with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s: %s" e.kernel.Kernel.name
            (Format.asprintf "%a" Bounds.pp_violation v))
    (Tsvc.Registry.all @ Tsvc.Registry.typed_extension)

let bounds_tests =
  [ Alcotest.test_case "bounds simple" `Quick test_bounds_simple_safe;
    Alcotest.test_case "bounds offset" `Quick test_bounds_catches_offset;
    Alcotest.test_case "bounds negative" `Quick test_bounds_catches_negative;
    Alcotest.test_case "bounds start" `Quick test_bounds_start_protects;
    Alcotest.test_case "bounds 2-d" `Quick test_bounds_2d;
    Alcotest.test_case "bounds whole suite" `Quick test_bounds_whole_suite ]

let tests = tests @ bounds_tests
