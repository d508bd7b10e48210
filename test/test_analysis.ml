(* Tests for the static-analysis framework: dataflow facts, each lint pass
   (positive on seeded bugs, clean on the registry), the vector-IR
   validator, translation validation, and the registry-wide gate the
   acceptance criteria require: every TSVC kernel lints clean of errors and
   validates under LLV, SLP and unrolling at VF 2, 4 and 8. *)

open Vir
module B = Builder
module A = Vanalysis
module V = Vvect.Vinstr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a[i] = b[i] + 1.0 *)
let simple () =
  let b = B.make "t" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.addf b x (B.cf 1.0));
  B.finish b

let has_pass name ds = List.exists (fun d -> d.A.Diag.pass = name) ds

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let fired pass k = has_pass pass (A.Lints.run_all k)

(* --- diag ----------------------------------------------------------------- *)

let test_diag_sort () =
  let d sev pos = A.Diag.make ~pass:"p" ~severity:sev ~kernel:"k" ?pos "m" in
  let sorted = A.Diag.sort [ d A.Diag.Info None; d A.Diag.Error (Some 3);
                             d A.Diag.Warning (Some 1); d A.Diag.Error (Some 1) ] in
  check "errors first" true
    ((List.hd sorted).A.Diag.severity = A.Diag.Error
    && (List.hd sorted).A.Diag.pos = Some 1);
  check "info last" true
    ((List.nth sorted 3).A.Diag.severity = A.Diag.Info)

let test_diag_json_escaping () =
  let str s = Vjson.to_string (Vjson.Str s) in
  Alcotest.(check string) "quote" "\"a\\\"b\"" (str "a\"b");
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (str "a\\b");
  Alcotest.(check string) "newline" "\"a\\nb\"" (str "a\nb");
  let d = A.Diag.error ~pass:"p" ~kernel:"k" ~pos:2 "m \"x\"" in
  Alcotest.(check string) "to_json"
    "{\"pass\":\"p\",\"severity\":\"error\",\"kernel\":\"k\",\"pos\":2,\
     \"message\":\"m \\\"x\\\"\"}"
    (Vjson.to_string (A.Diag.to_json d))

(* --- dataflow ------------------------------------------------------------- *)

let test_dataflow_liveness () =
  (* load; dead add (unused); live mul feeding the store *)
  let b = B.make "live" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let _dead = B.addf b x (B.cf 2.0) in
  let y = B.mulf b x (B.cf 3.0) in
  B.store b "a" [ B.ix i ] y;
  let df = A.Dataflow.analyze (B.finish b) in
  check "load live" true df.A.Dataflow.live.(0);
  check "dead add" false df.A.Dataflow.live.(1);
  check "mul live" true df.A.Dataflow.live.(2);
  check "store live" true df.A.Dataflow.live.(3)

let test_dataflow_reduction_keeps_live () =
  let b = B.make "red" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.reduce b "sum" Op.Rsum x;
  let df = A.Dataflow.analyze (B.finish b) in
  check "reduction source live" true df.A.Dataflow.live.(0);
  check_int "reduction use counted" 1 df.A.Dataflow.reduction_uses.(0)

let test_dataflow_consts () =
  let b = B.make "const" in
  let i = B.loop b "i" Kernel.Tn in
  let c = B.addf b (B.cf 2.0) (B.cf 3.0) in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.mulf b x c);
  let df = A.Dataflow.analyze (B.finish b) in
  check "2+3 folded" true (df.A.Dataflow.consts.(0) = Some (A.Dataflow.Cfloat 5.0));
  check "load not const" true (df.A.Dataflow.consts.(1) = None)

let test_dataflow_invariance () =
  let b = B.make "inv" in
  let j = B.loop b "j" Kernel.Tn2 in
  let i = B.loop b "i" Kernel.Tn2 in
  let row = B.load b "c" [ B.ix j ] in (* invariant in i *)
  let x = B.load b "aa" [ B.ix j; B.ix i ] in (* varies with i *)
  B.store b "bb" [ B.ix j; B.ix i ] (B.addf b row x);
  let df = A.Dataflow.analyze (B.finish b) in
  check "outer-indexed load invariant" true df.A.Dataflow.invariant.(0);
  check "inner-indexed load varies" false df.A.Dataflow.invariant.(1);
  check "sum varies" false df.A.Dataflow.invariant.(2)

let test_dataflow_store_kills_invariance () =
  (* b[0] is loop-invariant as an address, but the body stores to b. *)
  let b = B.make "kill" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix_const 0 ] in
  B.store b "b" [ B.ix i ] x;
  let df = A.Dataflow.analyze (B.finish b) in
  check "written array not invariant" false df.A.Dataflow.invariant.(0)

(* --- lint passes: seeded bugs ---------------------------------------------- *)

let test_lint_dead_result () =
  let b = B.make "dead" in
  let i = B.loop b "i" Kernel.Tn in
  ignore (B.load b "c" [ B.ix i ]);
  B.store b "a" [ B.ix i ] (B.cf 1.0);
  let k = B.finish b in
  check "dead result fires" true (fired "dead-result" k);
  check "clean kernel quiet" false (fired "dead-result" (simple ()))

let test_lint_redundant_load () =
  let b = B.make "redload" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let y = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.addf b x y);
  let k = B.finish b in
  check "redundant load fires" true (fired "redundant-load" k);
  check "clean kernel quiet" false (fired "redundant-load" (simple ()))

let test_lint_redundant_load_respects_stores () =
  (* A store to the array between the two loads makes the reload real. *)
  let b = B.make "noredload" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "a" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.addf b x (B.cf 1.0));
  let y = B.load b "a" [ B.ix i ] in
  B.store b "c" [ B.ix i ] y;
  let k = B.finish b in
  check "reload after store is not redundant" false (fired "redundant-load" k)

let test_lint_lossy_cast () =
  let b = B.make "lossy" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b ~ty:Types.F64 "b" [ B.ix i ] in
  let narrow = B.cast b ~from_:Types.F64 ~to_:Types.F32 x in
  let wide = B.cast b ~from_:Types.F32 ~to_:Types.F64 narrow in
  B.store b ~ty:Types.F64 "a" [ B.ix i ] wide;
  let k = B.finish b in
  check "lossy chain fires" true (fired "lossy-cast" k);
  check "clean kernel quiet" false (fired "lossy-cast" (simple ()))

let test_lint_widening_chain_ok () =
  (* f32 -> f64 -> f32 loses nothing on the way up; only the no-op style
     Info must not be an error. *)
  let b = B.make "widen" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let w = B.cast b ~from_:Types.F32 ~to_:Types.F64 x in
  let back = B.cast b ~from_:Types.F64 ~to_:Types.F32 w in
  B.store b "a" [ B.ix i ] back;
  let k = B.finish b in
  let ds = A.Lints.run_all k in
  check "no lossy warning" false
    (List.exists
       (fun d -> d.A.Diag.pass = "lossy-cast" && d.A.Diag.severity = A.Diag.Warning)
       ds)

let test_lint_out_of_bounds () =
  let k = simple () in
  let bad =
    { k with
      Kernel.body =
        [ Instr.Load
            { ty = Types.F32;
              addr = Instr.Affine { arr = "b";
                dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 5; rel_n = false } ] } };
          Instr.Store
            { ty = Types.F32;
              addr = Instr.Affine { arr = "a";
                dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ] };
              src = Instr.Reg 0 } ] }
  in
  let ds = A.Lints.run_all bad in
  check "out-of-bounds fires as Error" true
    (List.exists
       (fun d -> d.A.Diag.pass = "out-of-bounds" && A.Diag.is_error d)
       ds);
  check "clean kernel quiet" false (fired "out-of-bounds" k)

let test_lint_invariant_store () =
  let b = B.make "invstore" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix_const 0 ] x;
  let k = B.finish b in
  check "invariant store fires" true (fired "invariant-store" k);
  check "clean kernel quiet" false (fired "invariant-store" (simple ()))

let test_lint_unused_array () =
  let b = B.make "unusedarr" in
  let i = B.loop b "i" Kernel.Tn in
  B.declare b "ghost";
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  check "unused array fires" true (fired "unused-array" k);
  check "clean kernel quiet" false (fired "unused-array" (simple ()))

let test_lint_unused_param () =
  let b = B.make "unusedpar" in
  let i = B.loop b "i" Kernel.Tn in
  ignore (B.param b "s");
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  check "unused param fires" true (fired "unused-param" k);
  check "clean kernel quiet" false (fired "unused-param" (simple ()))

(* --- lint passes backed by the abstract interpreter ------------------------- *)

(* Proven out-of-bounds: b[i+5] over the full [0, n) trip violates at the
   interpreter's default environment, so the diagnostic must be an Error,
   anchored at the offending load, and say so. *)
let test_lint_oob_proven_diag () =
  let b = B.make "oobseed" in
  let i = B.loop b "i" Kernel.Tn in
  (* pin the extent to n: the builder would otherwise grow it to cover i+5 *)
  B.declare b ~extent:(Kernel.Lin (1, 0)) "b";
  let x = B.load b ~ty:Types.F32 "b" [ B.ix ~off:5 i ] in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  match
    List.filter (fun d -> d.A.Diag.pass = "out-of-bounds") (A.Lints.run_all k)
  with
  | [] -> Alcotest.fail "seeded proven OOB not reported"
  | d :: _ ->
      check "severity Error" true (d.A.Diag.severity = A.Diag.Error);
      check "anchored at the load" true (d.A.Diag.pos = Some 0);
      check "message says proven" true
        (String.length d.A.Diag.message >= 6
        && String.sub d.A.Diag.message 0 6 = "proven")

(* Misaligned unit-stride store: a[i+1] with trip n-1 stays in bounds but
   every vf=4 block start lands in residue class 1. *)
let test_lint_misaligned_store_diag () =
  let b = B.make "misalseed" in
  let i = B.loop b "i" (Kernel.Tn_minus 1) in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix ~off:1 i ] x;
  let k = B.finish b in
  let ds = A.Lints.run_all k in
  check "no out-of-bounds error" false
    (List.exists (fun d -> d.A.Diag.pass = "out-of-bounds" && A.Diag.is_error d) ds);
  match List.filter (fun d -> d.A.Diag.pass = "misaligned-access") ds with
  | [] -> Alcotest.fail "seeded misaligned store not reported"
  | d :: _ ->
      check "severity Warning" true (d.A.Diag.severity = A.Diag.Warning);
      check "anchored at the store" true (d.A.Diag.pos = Some 1);
      check "clean kernel quiet" false (fired "misaligned-access" (simple ()))

(* Loop-carried recurrence a[i] = a[i] + b[i]: the stored range grows every
   fixpoint round, so bounding it requires widening. *)
let test_lint_unbounded_recurrence_diag () =
  let b = B.make "recseed" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "a" [ B.ix i ] in
  let y = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.addf b x y);
  let k = B.finish b in
  match
    List.filter (fun d -> d.A.Diag.pass = "unbounded-recurrence") (A.Lints.run_all k)
  with
  | [] -> Alcotest.fail "seeded recurrence not reported"
  | d :: _ ->
      check "severity Warning" true (d.A.Diag.severity = A.Diag.Warning);
      check "anchored at the store" true (d.A.Diag.pos = Some 3);
      check "clean kernel quiet" false (fired "unbounded-recurrence" (simple ()))

(* Store a[i] twice with nothing reading the first: the dead-store lint
   must anchor at the overwritten store and stay quiet on clean kernels. *)
let test_lint_dead_store_diag () =
  let b = B.make "dseseed" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] x;
  B.store b "a" [ B.ix i ] (B.addf b x x);
  let k = B.finish b in
  match
    List.filter (fun d -> d.A.Diag.pass = "dead-store") (A.Lints.run_all k)
  with
  | [] -> Alcotest.fail "seeded dead store not reported"
  | d :: _ ->
      check "severity Warning" true (d.A.Diag.severity = A.Diag.Warning);
      check "anchored at the dead store" true (d.A.Diag.pos = Some 1);
      check "clean kernel quiet" false (fired "dead-store" (simple ()))

(* s*s with s a parameter is innermost-loop-invariant work left in the
   body: the loop-invariant-compute lint must flag it. *)
let test_lint_loop_invariant_compute_diag () =
  let b = B.make "licmseed" in
  let i = B.loop b "i" Kernel.Tn in
  let s = B.param b "s" in
  let inv = B.mulf b s s in
  B.store b "a" [ B.ix i ] (B.mulf b (B.load b "b" [ B.ix i ]) inv);
  let k = B.finish b in
  match
    List.filter
      (fun d -> d.A.Diag.pass = "loop-invariant-compute")
      (A.Lints.run_all k)
  with
  | [] -> Alcotest.fail "seeded invariant compute not reported"
  | d :: _ ->
      check "severity Warning" true (d.A.Diag.severity = A.Diag.Warning);
      check "anchored at the invariant multiply" true (d.A.Diag.pos = Some 0);
      check "clean kernel quiet" false
        (fired "loop-invariant-compute" (simple ()))

(* a[i] = a[i-2] + 1.0 carries a distance-2 flow dependence: the lint must
   name the capped factor and anchor at the dependence's sink (the load). *)
let test_lint_loop_carried_at_vf_diag () =
  let b = B.make "carriedseed" in
  let i = B.loop b ~start:2 "i" Kernel.Tn in
  let x = B.load b "a" [ B.ix ~off:(-2) i ] in
  B.store b "a" [ B.ix i ] (B.addf b x (B.cf 1.0));
  let k = B.finish b in
  match
    List.filter
      (fun d -> d.A.Diag.pass = "loop-carried-at-vf")
      (A.Lints.run_all k)
  with
  | [] -> Alcotest.fail "seeded carried dependence not reported"
  | d :: _ ->
      check "severity Warning" true (d.A.Diag.severity = A.Diag.Warning);
      check "names the cap" true
        (contains d.A.Diag.message "factor at 2");
      check "clean kernel quiet" false (fired "loop-carried-at-vf" (simple ()))

(* a[ix[i]] = b[i]: legality rests on conflict-free index arrays; the
   assumption must surface as a Warning. *)
let test_lint_assumed_conflict_free_diag () =
  let b = B.make "gatherseed" in
  let i = B.loop b "i" Kernel.Tn in
  let ix = B.load_index b "ix" [ B.ix i ] in
  B.store_ix b "a" ix (B.load b "b" [ B.ix i ]);
  let k = B.finish b in
  match
    List.filter
      (fun d -> d.A.Diag.pass = "assumed-conflict-free")
      (A.Lints.run_all k)
  with
  | [] -> Alcotest.fail "assumed legality not reported"
  | d :: _ ->
      check "severity Warning" true (d.A.Diag.severity = A.Diag.Warning);
      check "names the array" true (contains d.A.Diag.message "a");
      check "clean kernel quiet" false
        (fired "assumed-conflict-free" (simple ()))

(* ip[i] = ip[i] + 1: the effect license may-writes an Idx-role array,
   violating the Frozen ownership of index masters — an Error. *)
let test_lint_frozen_buffer_write_diag () =
  let b = B.make "fbwseed" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load_index b "ip" [ B.ix i ] in
  B.store b ~ty:Types.I32 "ip" [ B.ix i ] (B.addi b x (B.ci 1));
  let k = B.finish b in
  match
    List.filter
      (fun d -> d.A.Diag.pass = "frozen-buffer-write")
      (A.Lints.run_all k)
  with
  | [] -> Alcotest.fail "seeded frozen-buffer write not reported"
  | d :: _ ->
      check "severity Error" true (d.A.Diag.severity = A.Diag.Error);
      check "names the array" true (contains d.A.Diag.message "ip");
      check "clean kernel quiet" false
        (fired "frozen-buffer-write" (simple ()))

(* a[ix[i]] = b[i]: the scatter's may-write has no affine region, so it
   escapes the effect license's bounds — a Warning. *)
let test_lint_effect_escape_diag () =
  let b = B.make "escseed" in
  let i = B.loop b "i" Kernel.Tn in
  let ix = B.load_index b "ix" [ B.ix i ] in
  B.store_ix b "a" ix (B.load b "b" [ B.ix i ]);
  let k = B.finish b in
  match
    List.filter (fun d -> d.A.Diag.pass = "effect-escape") (A.Lints.run_all k)
  with
  | [] -> Alcotest.fail "seeded effect escape not reported"
  | d :: _ ->
      check "severity Warning" true (d.A.Diag.severity = A.Diag.Warning);
      check "names the scatter" true (contains d.A.Diag.message "scatter");
      check "clean kernel quiet" false (fired "effect-escape" (simple ()))

(* --- vector-IR validator: structural seeded bugs ---------------------------- *)

(* A hand-rolled vkernel around [simple ()]; [vbody] is the part under
   test. *)
let vk_of ?(vf = 4) ?(ic = 1) vbody =
  { V.scalar = simple (); vf; ic; vbody; vreductions = []; source = V.Src_llv }

let dims_i = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 0; rel_n = false } ]

let structural_fires vk = A.Vvalidate.check vk <> []

let good_vbody =
  [ V.Vload { ty = Types.F32; arr = "b"; dims = dims_i; access = V.Contig };
    V.Vbin { ty = Types.F32; op = Op.Add; a = V.V 0; b = V.Splat (Instr.Imm_float 1.0) };
    V.Vstore { ty = Types.F32; arr = "a"; dims = dims_i; access = V.Contig; src = V.V 1 } ]

let test_vvalidate_good () =
  check "well-formed vbody accepted" false (structural_fires (vk_of good_vbody))

let test_vvalidate_undefined_register () =
  let vk =
    vk_of
      [ V.Vstore { ty = Types.F32; arr = "a"; dims = dims_i; access = V.Contig; src = V.V 3 } ]
  in
  check "forward register rejected" true (structural_fires vk)

let test_vvalidate_splat_of_inner_index () =
  let vk =
    vk_of
      [ V.Vstore
          { ty = Types.F32; arr = "a"; dims = dims_i; access = V.Contig;
            src = V.Splat (Instr.Index "i") } ]
  in
  check "splat of induction variable rejected" true (structural_fires vk)

let test_vvalidate_sc_copy_range () =
  let sc_store copy =
    [ V.Sc
        { copy;
          instr =
            Instr.Store
              { ty = Types.F32; addr = Instr.Affine { arr = "a"; dims = dims_i };
                src = Instr.Imm_float 0.0 } } ]
  in
  check "copy 9 at vf*ic 4 rejected" true (structural_fires (vk_of (sc_store 9)));
  check "copy 3 at vf*ic 4 accepted" false (structural_fires (vk_of (sc_store 3)))

let test_vvalidate_extract_lane_range () =
  let body lane =
    [ V.Vload { ty = Types.F32; arr = "b"; dims = dims_i; access = V.Contig };
      V.Vextract { ty = Types.F32; src = V.V 0; lane };
      V.Sc
        { copy = 0;
          instr =
            Instr.Store
              { ty = Types.F32; addr = Instr.Affine { arr = "a"; dims = dims_i };
                src = Instr.Reg 1 } } ]
  in
  check "lane 7 at vf 4 rejected" true (structural_fires (vk_of (body 7)));
  check "lane 3 at vf 4 accepted" false (structural_fires (vk_of (body 3)))

let test_vvalidate_gather_index_type () =
  let body idx_ty =
    [ V.Vload { ty = idx_ty; arr = "b"; dims = dims_i; access = V.Contig };
      V.Vgather { ty = Types.F32; arr = "a"; idx = V.V 0 };
      V.Vstore { ty = Types.F32; arr = "a"; dims = dims_i; access = V.Contig; src = V.V 1 } ]
  in
  (* The float-typed "b" load makes a float index vector: rejected.  An
     integer index is fine structurally (the translation layer is separate). *)
  check "float gather index rejected" true (structural_fires (vk_of (body Types.F32)))

let test_vvalidate_pack_arity () =
  let vk =
    vk_of
      [ V.Vpack { ty = Types.F32; srcs = [| Instr.Imm_float 1.0 |] };
        V.Vstore { ty = Types.F32; arr = "a"; dims = dims_i; access = V.Contig; src = V.V 0 } ]
  in
  check "pack of 1 source at vf 4 rejected" true (structural_fires vk)

let test_vvalidate_access_tag () =
  let vk =
    vk_of
      [ V.Vload { ty = Types.F32; arr = "b"; dims = dims_i; access = V.Strided 3 };
        V.Vstore { ty = Types.F32; arr = "a"; dims = dims_i; access = V.Contig; src = V.V 0 } ]
  in
  check "contiguous subscripts tagged strided rejected" true
    (structural_fires vk)

let test_vvalidate_type_clash () =
  let vk =
    vk_of
      [ V.Vload { ty = Types.F32; arr = "b"; dims = dims_i; access = V.Contig };
        V.Vbin { ty = Types.I32; op = Op.Add; a = V.V 0; b = V.V 0 };
        V.Vstore { ty = Types.F32; arr = "a"; dims = dims_i; access = V.Contig; src = V.V 0 } ]
  in
  check "float vector in int add rejected" true (structural_fires vk)

let test_vvalidate_scalar_in_vector_position () =
  let vk =
    vk_of
      [ V.Sc
          { copy = 0;
            instr = Instr.Load { ty = Types.F32; addr = Instr.Affine { arr = "b"; dims = dims_i } } };
        V.Vstore { ty = Types.F32; arr = "a"; dims = dims_i; access = V.Contig; src = V.V 0 } ]
  in
  check "scalar-width register in vector position rejected" true
    (structural_fires vk)

(* --- translation validation: seeded bugs ------------------------------------ *)

let llv_exn ~vf k =
  match Vvect.Llv.vectorize ~vf k with
  | Ok vk -> vk
  | Error e -> Alcotest.failf "LLV failed: %s" (Vvect.Llv.error_to_string e)

let test_equiv_detects_dropped_store () =
  let vk = llv_exn ~vf:4 (simple ()) in
  let tampered =
    { vk with V.vbody = List.filter (function V.Vstore _ -> false | _ -> true) vk.V.vbody }
  in
  check "intact body passes" true (A.Equiv.memory_diags vk = []);
  check "dropped store detected" true (A.Equiv.memory_diags tampered <> [])

let test_equiv_detects_wrong_offset () =
  let vk = llv_exn ~vf:4 (simple ()) in
  let shift_store = function
    | V.Vstore { ty; arr; dims; access; src } ->
        V.Vstore
          { ty; arr; dims = List.map (Instr.shift_dim "i" 1) dims; access; src }
    | vi -> vi
  in
  let tampered = { vk with V.vbody = List.map shift_store vk.V.vbody } in
  check "shifted store address detected" true (A.Equiv.memory_diags tampered <> [])

let test_equiv_detects_reduction_tamper () =
  let b = B.make "red" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.reduce b "sum" Op.Rsum x;
  let k = B.finish b in
  let vk = llv_exn ~vf:4 k in
  check "intact reductions pass" true (A.Equiv.reduction_diags vk = []);
  let renamed =
    { vk with
      V.vreductions =
        List.map (fun r -> { r with V.vr_name = "other" }) vk.V.vreductions }
  in
  check "renamed reduction detected" true (A.Equiv.reduction_diags renamed <> []);
  let reinit =
    { vk with
      V.vreductions =
        List.map (fun r -> { r with V.vr_init = 42.0 }) vk.V.vreductions }
  in
  check "changed init detected" true (A.Equiv.reduction_diags reinit <> [])

let test_equiv_unroll_detects_step_tamper () =
  let k = simple () in
  let u = Vvect.Unroll.by 4 k in
  check "honest unroll passes" true (A.Equiv.unrolled_diags ~orig:k ~uf:4 u = []);
  let bad_step =
    { u with
      Kernel.loops =
        List.map (fun (l : Kernel.loop) -> { l with Kernel.step = 2 }) u.Kernel.loops }
  in
  check "wrong step detected" true
    (A.Equiv.unrolled_diags ~orig:k ~uf:4 bad_step <> [])

let test_equiv_unroll_detects_dropped_copy () =
  let k = simple () in
  let u = Vvect.Unroll.by 2 k in
  let dropped =
    { u with
      Kernel.body = List.filteri (fun pos _ -> pos < 2) u.Kernel.body }
  in
  check "dropped unroll copy detected" true
    (A.Equiv.unrolled_diags ~orig:k ~uf:2 dropped <> [])

(* --- the registry-wide gate ------------------------------------------------- *)

(* Acceptance criterion: zero lint Errors over the whole TSVC registry
   (typed extension included). *)
let test_registry_lint_gate () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let errs = List.filter A.Diag.is_error (A.Lints.run_all e.kernel) in
      match errs with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s: %s" e.kernel.Kernel.name (A.Diag.to_string d))
    (Tsvc.Registry.all @ Tsvc.Registry.typed_extension)

(* Acceptance criterion: the vector-IR validator (structure + translation)
   passes for every registry kernel under LLV, SLP and unrolling at VF 2,
   4 and 8 — whenever the transform applies.  Also pin a floor on how many
   configurations are actually exercised so skips cannot silently eat the
   gate. *)
let test_registry_vvalidate_gate () =
  let checked = ref 0 and skipped = ref 0 in
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      List.iter
        (fun tr ->
          List.iter
            (fun vf ->
              match A.Driver.validate_transformed tr ~vf e.kernel with
              | A.Driver.Skipped _ -> incr skipped
              | A.Driver.Checked ds -> (
                  incr checked;
                  match List.filter A.Diag.is_error ds with
                  | [] -> ()
                  | d :: _ ->
                      Alcotest.failf "%s %s vf=%d: %s" e.kernel.Kernel.name
                        (A.Driver.transform_to_string tr)
                        vf (A.Diag.to_string d)))
            A.Driver.default_vfs)
        A.Driver.all_transforms)
    Tsvc.Registry.all;
  (* 151 kernels x 3 transforms x 3 VFs = 1359 configurations; unrolling
     always applies (453), and most kernels vectorize. *)
  check "at least 1000 configurations validated" true (!checked >= 1000);
  check "every unroll configuration validated" true
    (!checked + !skipped = 1359 && !skipped <= 906)

(* The driver end-to-end: reports, JSON shape, error accounting. *)
let test_driver_report () =
  let r = A.Driver.lint_kernel (simple ()) in
  check "clean kernel no errors" false (A.Driver.has_errors r);
  check_int "9 vector configurations" 9 (List.length r.A.Driver.r_vector);
  let j = Vjson.to_string (A.Driver.report_to_json r) in
  check "json mentions kernel" true
    (String.length j > 0 && j.[0] = '{');
  let bad =
    { (simple ()) with
      Kernel.body =
        [ Instr.Load
            { ty = Types.F32;
              addr = Instr.Affine { arr = "b";
                dims = [ { Instr.terms = [ ("i", 1) ]; pterms = []; off = 7; rel_n = false } ] } };
          Instr.Store
            { ty = Types.F32;
              addr = Instr.Affine { arr = "a"; dims = dims_i };
              src = Instr.Reg 0 } ] }
  in
  check "seeded bug surfaces in report" true
    (A.Driver.has_errors (A.Driver.lint_kernel bad))

(* --- relational certificates: Ibox, Rel, Cert ------------------------------- *)

module E = Vexec

(* The shared interval kernel every bounds proof sits on. *)
let test_ibox_loop_values () =
  (match Ibox.loop_values ~start:0 ~step:1 ~bound:8 with
  | `Range r -> check "unit step range" true (r.Ibox.lo = 0 && r.Ibox.hi = 7)
  | _ -> Alcotest.fail "unit step should give a range");
  (match Ibox.loop_values ~start:0 ~step:3 ~bound:8 with
  | `Range r ->
      check "strided last iteration" true (r.Ibox.lo = 0 && r.Ibox.hi = 6)
  | _ -> Alcotest.fail "strided loop should give a range");
  check "empty negative-step loop" true
    (Ibox.loop_values ~start:5 ~step:(-1) ~bound:5 = `Empty);
  check "nonempty negative-step loop unbounded" true
    (Ibox.loop_values ~start:0 ~step:(-1) ~bound:8 = `Unknown);
  let hull =
    Ibox.affine_hull ~const:1 ~coeff:[| 2; -3 |] ~depth:[| 0; 1 |]
      ~env:[| Ibox.make 0 4; Ibox.make 1 2 |]
  in
  check "affine hull corners" true (hull.Ibox.lo = -5 && hull.Ibox.hi = 6)

(* Satellite: a provably-empty negative-step loop is vacuously safe — the
   historical fallback rejected every non-positive step outright, forcing
   the guarded body even though the nest never reaches the access. *)
let neg_step_kernel trip =
  let b = B.make "negstep" in
  let i = B.loop b "i" (Kernel.Tconst 4) in
  B.declare b ~extent:(Kernel.Lin (1, 0)) "b";
  B.declare b ~extent:(Kernel.Lin (1, 0)) "a";
  let x = B.load b "b" [ B.ix ~off:(-5) i ] in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  { k with
    Kernel.loops =
      [ { (List.hd k.Kernel.loops) with Kernel.trip; step = -1 } ] }

let test_negative_step_affine_safe () =
  (* trip 0, step -1: the guard fails immediately, so the OOB subscript
     b[i-5] is unreachable and the binding is vacuously safe. *)
  let k = neg_step_kernel (Kernel.Tconst 0) in
  let st = E.Flat.create (E.Program.lower k) in
  let cl = E.Closure.compile st in
  let env = Vinterp.Env.create ~n:64 k in
  E.Flat.bind st env;
  check "empty negative-step loop is vacuously safe" true
    (E.Closure.affine_safe st);
  check "empty nest runs without trapping" true
    (E.Closure.run_bound st cl = []);
  (* trip 4, step -1: nonempty with no finite iteration set — must stay
     unprovable, never vacuously safe. *)
  let k = neg_step_kernel (Kernel.Tconst 4) in
  let st = E.Flat.create (E.Program.lower k) in
  let env = Vinterp.Env.create ~n:64 k in
  E.Flat.bind st env;
  check "nonempty negative-step loop stays unproven" false
    (E.Closure.affine_safe st)

(* Seeded-unsound-certificate negative: a hand-forged all-[Vsafe]
   certificate on an out-of-bounds kernel must fail the soundness gate (the
   bind-time proof refutes it), and the real certifier must refuse to issue
   it in the first place. *)
let test_forged_certificate_fails_gate () =
  let b = B.make "unsound" in
  let i = B.loop b "i" Kernel.Tn in
  B.declare b ~extent:(Kernel.Lin (1, 0)) "b";
  B.declare b ~extent:(Kernel.Lin (1, 0)) "a";
  let x = B.load b "b" [ B.ix ~off:5 i ] in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  let c = A.Cert.certify k in
  check "certifier refuses the OOB kernel" false c.A.Cert.ct_guard_free;
  check "witness-backed refutation recorded" true
    (Array.exists
       (fun (a : A.Cert.access_cert) -> a.A.Cert.ac_verdict = A.Cert.Vunsafe)
       c.A.Cert.ct_accesses);
  let forged =
    { c with
      A.Cert.ct_accesses =
        Array.map
          (fun a -> { a with A.Cert.ac_verdict = A.Cert.Vsafe })
          c.A.Cert.ct_accesses;
      ct_guard_free = true;
      ct_safe = Array.length c.A.Cert.ct_accesses;
      ct_unsafe = 0 }
  in
  let g = A.Cert.gate [ (k, forged) ] in
  check "forged certificate fails the gate" false (A.Cert.gate_pass g);
  check "the bind-time proof refutes it" true
    (List.exists
       (fun m -> contains m "refutes the certificate")
       g.A.Cert.g_failures)

(* A parameter-dependent access the relational prover certifies for every
   contract assignment: b[i+p] against extent n+4 with p in [1,4]. *)
let test_cert_param_dependent_safe () =
  let b = B.make "paramsafe" in
  let i = B.loop b "i" Kernel.Tn in
  let _ = B.param b "p" in
  B.declare b ~extent:(Kernel.Lin (1, 4)) "b";
  B.declare b ~extent:(Kernel.Lin (1, 0)) "a";
  let x = B.load b "b" [ B.ix_plus_param b (B.ix i) ("p", 1) ] in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  let c = A.Cert.certify k in
  check "parametric proof makes the kernel guard-free" true
    c.A.Cert.ct_guard_free;
  check "every access certified" true
    (c.A.Cert.ct_safe = Array.length c.A.Cert.ct_accesses)

(* The same shape against extent n+2: clean at the default binding (p=1)
   but violated at the contract corner p=4, so the bounds analysis says
   [Possible], the prover cannot certify, and the lint keeps its warning —
   now explicitly marked uncertified. *)
let test_lint_oob_param_dependent () =
  let b = B.make "parampossible" in
  let i = B.loop b "i" Kernel.Tn in
  let _ = B.param b "p" in
  B.declare b ~extent:(Kernel.Lin (1, 2)) "b";
  B.declare b ~extent:(Kernel.Lin (1, 0)) "a";
  let x = B.load b "b" [ B.ix_plus_param b (B.ix i) ("p", 1) ] in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  match
    List.filter (fun d -> d.A.Diag.pass = "out-of-bounds") (A.Lints.run_all k)
  with
  | [] -> Alcotest.fail "parameter-dependent OOB not reported"
  | d :: _ ->
      check "stays a warning" true (d.A.Diag.severity = A.Diag.Warning);
      check "message says not certified" true
        (contains d.A.Diag.message "not certified")

(* qcheck soundness gate: on random kernels, a guard-free certificate may
   never be refuted by the bind-time proof, trap, or diverge from the
   reference interpreter — under random in-contract parameter assignments
   and multiple problem sizes. *)
let test_cert_soundness_prop =
  QCheck.Test.make ~count:500
    ~name:"certificates sound on random kernels"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let k = Vsynth.Generator.kernel seed in
      let c = A.Cert.certify k in
      List.iter
        (fun n ->
          let mk_env () =
            let env = Vinterp.Env.create ~seed:97 ~n k in
            List.iteri
              (fun j p ->
                let lo, hi = Bounds.param_contract k p in
                let v = lo + ((seed + (7 * j)) mod (hi - lo + 1)) in
                Vinterp.Env.set_param env p (float_of_int v))
              k.Kernel.params;
            env
          in
          let st = E.Flat.create (E.Program.lower k) in
          let cl = E.Closure.compile st in
          let env = mk_env () in
          E.Flat.bind st env;
          if c.A.Cert.ct_guard_free && not (E.Closure.affine_safe st) then
            QCheck.Test.fail_reportf
              "%s: certificate safe but bind-time proof refutes it at n=%d"
              k.Kernel.name n;
          let closure_digest =
            match E.Closure.run_bound st cl with
            | reds -> E.Backend.digest env reds
            | exception Vinterp.Env.Out_of_bounds _ ->
                if c.A.Cert.ct_guard_free then
                  QCheck.Test.fail_reportf
                    "%s: guard-free run trapped out of bounds at n=%d"
                    k.Kernel.name n
                else "trap"
          in
          let oracle_env = mk_env () in
          let oracle_digest =
            match Vinterp.Interp.run_in oracle_env k with
            | reds -> E.Backend.digest oracle_env reds
            | exception Vinterp.Env.Out_of_bounds _ -> "trap"
          in
          if not (String.equal closure_digest oracle_digest) then
            QCheck.Test.fail_reportf
              "%s: closure run diverges from the interpreter at n=%d"
              k.Kernel.name n)
        [ 64; 193 ];
      true)

(* Registry-wide: the static certificates must prove strictly more
   accesses than the bind-time interval check (the negative-step and
   parameter-dependent accesses are exactly the gap), and the executable
   soundness gate must pass. *)
let test_cert_registry_gate () =
  let ks =
    List.map
      (fun (e : Tsvc.Registry.entry) -> e.kernel)
      (Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries)
  in
  let pairs = A.Cert.certify_batch ks in
  let g = A.Cert.gate pairs in
  check "gate passes" true (A.Cert.gate_pass g);
  check "static strictly beats the bind-time proof" true
    (g.A.Cert.g_guard_free > 0 && g.A.Cert.g_safe > g.A.Cert.g_bind_time)

(* Certificate JSON is byte-identical whether certification runs on the
   worker pool or sequentially: the CLI's --json output cannot depend on
   the worker count. *)
let test_cert_json_deterministic () =
  let ks =
    List.filteri (fun i _ -> i < 40) Tsvc.Registry.all
    |> List.map (fun (e : Tsvc.Registry.entry) -> e.kernel)
  in
  let render () =
    String.concat "\n"
      (List.map
         (fun (_, c) -> Vjson.to_string (A.Cert.to_json c))
         (A.Cert.certify_batch ks))
  in
  let was_seq = Vpar.Pool.sequential () in
  Vpar.Pool.set_sequential true;
  let sequential = render () in
  Vpar.Pool.set_sequential false;
  let parallel = render () in
  Vpar.Pool.set_sequential was_seq;
  Alcotest.(check string) "json stable across worker counts" sequential
    parallel

let tests =
  [ Alcotest.test_case "diag sort" `Quick test_diag_sort;
    Alcotest.test_case "diag json escaping" `Quick test_diag_json_escaping;
    Alcotest.test_case "dataflow liveness" `Quick test_dataflow_liveness;
    Alcotest.test_case "dataflow reduction live" `Quick test_dataflow_reduction_keeps_live;
    Alcotest.test_case "dataflow consts" `Quick test_dataflow_consts;
    Alcotest.test_case "dataflow invariance" `Quick test_dataflow_invariance;
    Alcotest.test_case "dataflow store kills invariance" `Quick test_dataflow_store_kills_invariance;
    Alcotest.test_case "lint dead result" `Quick test_lint_dead_result;
    Alcotest.test_case "lint redundant load" `Quick test_lint_redundant_load;
    Alcotest.test_case "lint redundant load stores" `Quick test_lint_redundant_load_respects_stores;
    Alcotest.test_case "lint lossy cast" `Quick test_lint_lossy_cast;
    Alcotest.test_case "lint widening chain ok" `Quick test_lint_widening_chain_ok;
    Alcotest.test_case "lint out of bounds" `Quick test_lint_out_of_bounds;
    Alcotest.test_case "lint invariant store" `Quick test_lint_invariant_store;
    Alcotest.test_case "lint unused array" `Quick test_lint_unused_array;
    Alcotest.test_case "lint unused param" `Quick test_lint_unused_param;
    Alcotest.test_case "lint oob proven diag" `Quick test_lint_oob_proven_diag;
    Alcotest.test_case "lint misaligned store diag" `Quick test_lint_misaligned_store_diag;
    Alcotest.test_case "lint unbounded recurrence diag" `Quick test_lint_unbounded_recurrence_diag;
    Alcotest.test_case "lint dead store diag" `Quick test_lint_dead_store_diag;
    Alcotest.test_case "lint loop invariant compute diag" `Quick test_lint_loop_invariant_compute_diag;
    Alcotest.test_case "lint loop carried at vf diag" `Quick test_lint_loop_carried_at_vf_diag;
    Alcotest.test_case "lint assumed conflict free diag" `Quick test_lint_assumed_conflict_free_diag;
    Alcotest.test_case "lint frozen buffer write diag" `Quick test_lint_frozen_buffer_write_diag;
    Alcotest.test_case "lint effect escape diag" `Quick test_lint_effect_escape_diag;
    Alcotest.test_case "vvalidate good body" `Quick test_vvalidate_good;
    Alcotest.test_case "vvalidate undefined register" `Quick test_vvalidate_undefined_register;
    Alcotest.test_case "vvalidate splat of index" `Quick test_vvalidate_splat_of_inner_index;
    Alcotest.test_case "vvalidate sc copy range" `Quick test_vvalidate_sc_copy_range;
    Alcotest.test_case "vvalidate extract lane" `Quick test_vvalidate_extract_lane_range;
    Alcotest.test_case "vvalidate gather index type" `Quick test_vvalidate_gather_index_type;
    Alcotest.test_case "vvalidate pack arity" `Quick test_vvalidate_pack_arity;
    Alcotest.test_case "vvalidate access tag" `Quick test_vvalidate_access_tag;
    Alcotest.test_case "vvalidate type clash" `Quick test_vvalidate_type_clash;
    Alcotest.test_case "vvalidate width clash" `Quick test_vvalidate_scalar_in_vector_position;
    Alcotest.test_case "equiv dropped store" `Quick test_equiv_detects_dropped_store;
    Alcotest.test_case "equiv wrong offset" `Quick test_equiv_detects_wrong_offset;
    Alcotest.test_case "equiv reduction tamper" `Quick test_equiv_detects_reduction_tamper;
    Alcotest.test_case "equiv unroll step tamper" `Quick test_equiv_unroll_detects_step_tamper;
    Alcotest.test_case "equiv unroll dropped copy" `Quick test_equiv_unroll_detects_dropped_copy;
    Alcotest.test_case "registry lint gate" `Quick test_registry_lint_gate;
    Alcotest.test_case "registry vvalidate gate" `Slow test_registry_vvalidate_gate;
    Alcotest.test_case "ibox loop values" `Quick test_ibox_loop_values;
    Alcotest.test_case "negative-step affine safety" `Quick
      test_negative_step_affine_safe;
    Alcotest.test_case "forged certificate fails the gate" `Quick
      test_forged_certificate_fails_gate;
    Alcotest.test_case "cert parametric proof" `Quick
      test_cert_param_dependent_safe;
    Alcotest.test_case "lint oob parameter-dependent" `Quick
      test_lint_oob_param_dependent;
    QCheck_alcotest.to_alcotest test_cert_soundness_prop;
    Alcotest.test_case "cert registry gate" `Slow test_cert_registry_gate;
    Alcotest.test_case "cert json worker determinism" `Quick
      test_cert_json_deterministic;
    Alcotest.test_case "driver report" `Quick test_driver_report ]
