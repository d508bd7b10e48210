(* Tests for the SSA-based optimizer: the specific rewrite each pass
   promises, per-pass semantic validation against the reference interpreter
   (via Analysis.Equiv), and the registry-wide gate the acceptance criteria
   demand: zero semantic diffs and no instruction-count growth over
   TSVC + apps. *)

open Vir
module A = Vanalysis
module B = Builder
module I = Vinterp.Interp
module Env = Vinterp.Env

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let body_len (k : Kernel.t) = List.length k.Kernel.body

let same_behaviour ?(n = 101) k k' =
  let r1 = I.run ~n k and r2 = I.run ~n k' in
  List.for_all2
    (fun (a, x) (b, y) ->
      a = b && Array.length x = Array.length y
      && Array.for_all2 A.Equiv.float_eq x y)
    (Env.snapshot r1.I.env) (Env.snapshot r2.I.env)
  && List.for_all2
       (fun (a, x) (b, y) -> a = b && A.Equiv.float_eq x y)
       r1.I.reductions r2.I.reductions

let registry = Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries

(* --- SSA form --------------------------------------------------------------- *)

let test_ssa_registry_well_formed () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      match A.Ssa.check e.kernel with
      | () -> ()
      | exception A.Ssa.Not_ssa m ->
          Alcotest.failf "%s: %s" e.kernel.Kernel.name m)
    registry

let test_ssa_rejects_forward_use () =
  let k = (Tsvc.Registry.find_exn "s000").kernel in
  let bad =
    { k with
      Kernel.body =
        k.Kernel.body
        @ [ Instr.Bin
              { ty = Types.F64; op = Op.Add;
                a = Instr.Reg 999; b = Instr.Imm_float 1.0 } ] }
  in
  check "forward use rejected" true
    (match A.Ssa.check bad with
    | () -> false
    | exception A.Ssa.Not_ssa _ -> true)

(* --- available expressions --------------------------------------------------- *)

let test_avail_commutative () =
  let b = B.make "comm" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let y = B.load b "c" [ B.ix i ] in
  let s1 = B.addf b x y in
  let s2 = B.addf b y x in
  B.store b "a" [ B.ix i ] (B.mulf b s1 s2);
  let k = B.finish b in
  let av = A.Avail.analyze k in
  (* positions: 0 load, 1 load, 2 add, 3 add, 4 mul, 5 store *)
  check "a+b and b+a share a value number" true (A.Avail.leader_of av 3 <> 3);
  check_int "leader is the first add" 2 (A.Avail.leader_of av 3)

let test_avail_load_killed_by_store () =
  let b = B.make "kill" in
  let i = B.loop b "i" Kernel.Tn in
  let x1 = B.load b "a" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.addf b x1 (B.cf 1.0));
  let x2 = B.load b "a" [ B.ix i ] in
  B.store b "c" [ B.ix i ] x2;
  let k = B.finish b in
  let av = A.Avail.analyze k in
  Array.iteri
    (fun pos instr ->
      if Instr.is_load instr then
        check "no load merged across the store" true
          (A.Avail.leader_of av pos = pos))
    (Array.of_list k.Kernel.body)

(* --- DCE -------------------------------------------------------------------- *)

let test_dce_removes_dead () =
  let b = B.make "dead" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let _dead = B.mulf b x x in
  let _dead2 = B.addf b x (B.cf 3.0) in
  B.store b "a" [ B.ix i ] x;
  let k = B.finish b in
  let k' = A.Opt.dce_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check_int "two dead instructions removed" (body_len k - 2) (body_len k');
  check "same behaviour" true (same_behaviour k k')

let test_dce_keeps_stores_and_reductions () =
  let k = (Tsvc.Registry.find_exn "s313").kernel in
  let k' = A.Opt.dce_pass.A.Opt.p_run k in
  check_int "nothing dead in a dot product" (body_len k) (body_len k')

(* --- GVN / CSE ---------------------------------------------------------------- *)

let test_gvn_merges_duplicate_loads () =
  (* s271 as written loads a[i] and b[i] multiple times. *)
  let k = (Tsvc.Registry.find_exn "s271").kernel in
  let k' = A.Opt.gvn_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check "loads merged" true (body_len k' < body_len k);
  check "same behaviour" true (same_behaviour k k')

let test_gvn_respects_stores () =
  (* Load / store / load of the same location must not merge the loads. *)
  let b = B.make "ls" in
  let i = B.loop b "i" Kernel.Tn in
  let x1 = B.load b "a" [ B.ix i ] in
  B.store b "a" [ B.ix i ] (B.addf b x1 (B.cf 1.0));
  let x2 = B.load b "a" [ B.ix i ] in
  B.store b "c" [ B.ix i ] x2;
  let k = B.finish b in
  let k' = A.Opt.gvn_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check_int "no merge across the store" (body_len k) (body_len k');
  check "same behaviour" true (same_behaviour k k')

let test_gvn_merges_commutative () =
  let b = B.make "pure" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  let y = B.load b "c" [ B.ix i ] in
  let s1 = B.addf b x y in
  let s2 = B.addf b y x in
  (* same value, operands swapped *)
  B.store b "a" [ B.ix i ] (B.mulf b s1 s2);
  let k = B.finish b in
  let k' = A.Opt.normalize k in
  Validate.check_exn k';
  check "commutative duplicate merged" true (body_len k' < body_len k);
  check "same behaviour" true (same_behaviour k k')

(* --- constant folding --------------------------------------------------------- *)

let test_fold_immediates () =
  let b = B.make "fold" in
  let i = B.loop b "i" Kernel.Tn in
  let c = B.mulf b (B.cf 2.0) (B.cf 3.0) in
  (* 6.0 *)
  B.store b "a" [ B.ix i ] (B.addf b (B.load b "b" [ B.ix i ]) c);
  let k = B.finish b in
  let k' = A.Opt.fold_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check_int "constant multiply folded away" (body_len k - 1) (body_len k');
  check "same behaviour" true (same_behaviour k k')

let test_fold_int_identities () =
  let b = B.make "ident" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b ~ty:Types.I64 "b" [ B.ix i ] in
  let v1 = B.addi b x (B.ci 0) in
  (* x + 0 = x *)
  let v2 = B.muli b v1 (B.ci 1) in
  (* x * 1 = x *)
  B.store b ~ty:Types.I64 "a" [ B.ix i ] v2;
  let k = B.finish b in
  let k' = A.Opt.fold_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check_int "both identities collapsed" (body_len k - 2) (body_len k');
  check "same behaviour" true (same_behaviour k k')

let test_fold_preserves_division_by_zero () =
  let b = B.make "divz" in
  let i = B.loop b "i" Kernel.Tn in
  (* Float division by immediate zero must not be folded into inf at one
     site and left at another; we simply refuse to fold it. *)
  let q = B.divf b (B.cf 1.0) (B.cf 0.0) in
  let cond = B.cmp b Op.Gt (B.load b "b" [ B.ix i ]) (B.cf 2.0) in
  B.store b "a" [ B.ix i ] (B.select b cond q (B.cf 0.0));
  let k = B.finish b in
  let k' = A.Opt.fold_pass.A.Opt.p_run k in
  check "same behaviour with div-by-zero" true (same_behaviour k k')

(* --- LICM -------------------------------------------------------------------- *)

let test_licm_hoists_invariants_to_prefix () =
  let b = B.make "licm" in
  let i = B.loop b "i" Kernel.Tn in
  let s = B.param b "s" in
  let x = B.load b "b" [ B.ix i ] in
  (* variant *)
  let inv = B.mulf b s s in
  (* invariant, computed after a variant instr *)
  B.store b "a" [ B.ix i ] (B.mulf b x inv);
  let k = B.finish b in
  let k' = A.Opt.licm_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check_int "no instruction added or removed" (body_len k) (body_len k');
  check "same behaviour" true (same_behaviour k k');
  (* the invariant multiply now precedes the variant load *)
  (match List.hd k'.Kernel.body with
  | Instr.Bin { op = Op.Mul; _ } -> ()
  | _ -> Alcotest.fail "invariant multiply not hoisted to the prefix");
  let df = A.Dataflow.analyze k' in
  let hoisted = A.Opt.hoisted_count k' in
  check "hoisted instructions form a prefix" true
    (Array.for_all (fun b -> b) (Array.sub df.A.Dataflow.invariant 0 hoisted))

let test_licm_invariant_load_crosses_stores () =
  let b = B.make "licmload" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] x;
  (* c is never stored to, so c[0] is invariant and may cross the store *)
  let c0 = B.load b "c" [ B.ix_const 0 ] in
  B.store b "d" [ B.ix i ] (B.addf b x c0) ;
  let k = B.finish b in
  let k' = A.Opt.licm_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check "same behaviour" true (same_behaviour k k');
  (match List.hd k'.Kernel.body with
  | Instr.Load { addr; _ } ->
      Alcotest.(check string) "invariant load first" "c" (Instr.addr_array addr)
  | _ -> Alcotest.fail "invariant load not hoisted")

(* --- strength reduction -------------------------------------------------------- *)

let test_strength_mul_to_shift () =
  let b = B.make "str" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b ~ty:Types.I64 "b" [ B.ix i ] in
  let v = B.muli b x (B.ci 8) in
  B.store b ~ty:Types.I64 "a" [ B.ix i ] v;
  let k = B.finish b in
  let k' = A.Opt.strength_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check "same behaviour" true (same_behaviour k k');
  check "multiply became a shift" true
    (List.exists
       (function Instr.Bin { op = Op.Shl; b = Instr.Imm_int 3; _ } -> true | _ -> false)
       k'.Kernel.body);
  check "no multiply left" false
    (List.exists
       (function Instr.Bin { op = Op.Mul; _ } -> true | _ -> false)
       k'.Kernel.body)

let test_strength_div_guarded () =
  (* i/4 with i >= 0 becomes a shift; a parameter-derived value must not. *)
  let b = B.make "strdiv" in
  let i = B.loop b "i" Kernel.Tn in
  let q = B.bin b Types.I64 Op.Div i (B.ci 4) in
  let r = B.bin b Types.I64 Op.Rem i (B.ci 4) in
  B.store_ix b ~ty:Types.I64 "a" q (B.addi b q r);
  let k = B.finish b in
  let k' = A.Opt.strength_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check "same behaviour" true (same_behaviour k k');
  check "division became a shift" true
    (List.exists
       (function Instr.Bin { op = Op.Shr; _ } -> true | _ -> false)
       k'.Kernel.body);
  check "remainder became a mask" true
    (List.exists
       (function Instr.Bin { op = Op.And; b = Instr.Imm_int 3; _ } -> true | _ -> false)
       k'.Kernel.body)

(* --- DSE --------------------------------------------------------------------- *)

let test_dse_removes_overwritten_store () =
  let b = B.make "dse" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] x;
  (* overwritten below, never read *)
  B.store b "a" [ B.ix i ] (B.addf b x x);
  let k = B.finish b in
  check_int "one dead store found" 1 (List.length (A.Opt.dead_stores k));
  let k' = A.Opt.dse_pass.A.Opt.p_run k in
  Validate.check_exn k';
  check_int "store removed" (body_len k - 1) (body_len k');
  check "same behaviour" true (same_behaviour k k')

let test_dse_respects_intervening_load () =
  let b = B.make "dseload" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] x;
  let y = B.load b "a" [ B.ix i ] in
  (* observes the first store *)
  B.store b "a" [ B.ix i ] (B.addf b y y);
  let k = B.finish b in
  check_int "no dead store" 0 (List.length (A.Opt.dead_stores k));
  check_int "nothing removed" (body_len k)
    (body_len (A.Opt.dse_pass.A.Opt.p_run k))

let test_dse_different_addresses_kept () =
  let b = B.make "dseaddr" in
  let i = B.loop b "i" Kernel.Tn in
  let x = B.load b "b" [ B.ix i ] in
  B.store b "a" [ B.ix i ] x;
  B.store b "a" [ B.ix ~off:1 i ] x;
  (* different location: both live *)
  let k = B.finish b in
  check_int "no dead store at distinct addresses" 0
    (List.length (A.Opt.dead_stores k))

(* --- the pipeline over the registries: the acceptance gate --------------------- *)

(* Every pass individually Equiv-validated over TSVC + apps on the Vpar
   pool: zero semantic diffs, and no pass ever grows a body. *)
let test_opt_validate_registry () =
  let ks = List.map (fun (e : Tsvc.Registry.entry) -> e.kernel) registry in
  List.iter2
    (fun (k : Kernel.t) diags ->
      match diags with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s: %s" k.Kernel.name (A.Diag.to_string d))
    ks
    (A.Opt.validate_all ks)

let test_opt_never_grows () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let r = A.Opt.run e.kernel in
      List.iter
        (fun (s : A.Opt.step) ->
          check
            (e.kernel.Kernel.name ^ " " ^ s.A.Opt.st_pass ^ " no growth")
            true
            (s.A.Opt.st_after <= s.A.Opt.st_before))
        r.A.Opt.rp_steps)
    registry

let test_opt_idempotent () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let once = A.Opt.normalize e.kernel in
      let twice = A.Opt.normalize once in
      check_int
        (e.kernel.Kernel.name ^ " fixpoint")
        (body_len once) (body_len twice))
    registry

(* Normalization must never turn a legal kernel illegal (it only removes or
   reorders memory operations in dependence-preserving ways). *)
let test_opt_preserves_legality () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let before = Vdeps.Dependence.vectorizable e.kernel in
      let after = Vdeps.Dependence.vectorizable (A.Opt.normalize e.kernel) in
      check (e.kernel.Kernel.name ^ " legality monotone") true
        ((not before) || after))
    Tsvc.Registry.all

(* --- qcheck: each pass preserves interpreter output on random kernels --------- *)

(* One property per pass, 100 kernels each (6 passes -> 600 random kernels),
   plus a whole-pipeline property over the dependence-stress generator. *)
let per_pass_props =
  List.map
    (fun (p : A.Opt.pass) ->
      QCheck.Test.make ~count:100
        ~name:(Printf.sprintf "pass %s preserves generated kernels" p.A.Opt.p_name)
        QCheck.(int_bound 50_000)
        (fun seed ->
          let k = Vsynth.Generator.kernel seed in
          let k' = p.A.Opt.p_run k in
          Validate.errors k' = []
          && body_len k' <= body_len k
          && A.Equiv.semantic_diags ~pass:p.A.Opt.p_name ~orig:k k' = []))
    A.Opt.pipeline

let prop_pipeline_stress =
  QCheck.Test.make ~count:120
    ~name:"pipeline preserves dependence-stress kernels"
    QCheck.(int_bound 50_000)
    (fun seed ->
      let k = Vsynth.Generator.dep_kernel seed in
      let k' = A.Opt.normalize k in
      Validate.errors k' = [] && same_behaviour k k')

(* --- determinism: opt --json byte-stable across worker counts ------------------ *)

let test_opt_json_deterministic () =
  let ks =
    List.filteri (fun i _ -> i mod 10 = 0)
      (List.map (fun (e : Tsvc.Registry.entry) -> e.kernel) registry)
  in
  let render () =
    Vjson.to_string (Vjson.List (List.map A.Opt.report_to_json (A.Opt.run_all ks)))
  in
  Vpar.Pool.set_sequential true;
  let serial = Fun.protect ~finally:(fun () -> Vpar.Pool.set_sequential false) render in
  let parallel = render () in
  Alcotest.(check string) "sequential vs pool-rendered JSON" serial parallel

let tests =
  [ Alcotest.test_case "ssa registry well-formed" `Quick test_ssa_registry_well_formed;
    Alcotest.test_case "ssa rejects forward use" `Quick test_ssa_rejects_forward_use;
    Alcotest.test_case "avail commutative" `Quick test_avail_commutative;
    Alcotest.test_case "avail kill by store" `Quick test_avail_load_killed_by_store;
    Alcotest.test_case "dce removes dead" `Quick test_dce_removes_dead;
    Alcotest.test_case "dce keeps live" `Quick test_dce_keeps_stores_and_reductions;
    Alcotest.test_case "gvn merges loads" `Quick test_gvn_merges_duplicate_loads;
    Alcotest.test_case "gvn respects stores" `Quick test_gvn_respects_stores;
    Alcotest.test_case "gvn merges commutative" `Quick test_gvn_merges_commutative;
    Alcotest.test_case "fold immediates" `Quick test_fold_immediates;
    Alcotest.test_case "fold int identities" `Quick test_fold_int_identities;
    Alcotest.test_case "fold div by zero" `Quick test_fold_preserves_division_by_zero;
    Alcotest.test_case "licm hoists to prefix" `Quick test_licm_hoists_invariants_to_prefix;
    Alcotest.test_case "licm load crosses stores" `Quick test_licm_invariant_load_crosses_stores;
    Alcotest.test_case "strength mul to shift" `Quick test_strength_mul_to_shift;
    Alcotest.test_case "strength div guarded" `Quick test_strength_div_guarded;
    Alcotest.test_case "dse removes overwritten" `Quick test_dse_removes_overwritten_store;
    Alcotest.test_case "dse respects loads" `Quick test_dse_respects_intervening_load;
    Alcotest.test_case "dse distinct addresses" `Quick test_dse_different_addresses_kept;
    Alcotest.test_case "registry equiv gate" `Slow test_opt_validate_registry;
    Alcotest.test_case "registry never grows" `Slow test_opt_never_grows;
    Alcotest.test_case "idempotent" `Slow test_opt_idempotent;
    Alcotest.test_case "legality monotone" `Slow test_opt_preserves_legality;
    Alcotest.test_case "opt json deterministic" `Quick test_opt_json_deterministic ]
  @ List.map QCheck_alcotest.to_alcotest per_pass_props
  @ [ QCheck_alcotest.to_alcotest prop_pipeline_stress ]
