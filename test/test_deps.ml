(* Tests for the dependence analysis and vectorization-legality verdicts. *)

open Vir
module B = Builder
module Dep = Vdeps.Dependence

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let limit_of k =
  match Dep.vf_limit k with Dep.Unlimited -> max_int | Dep.Max_vf m -> m

(* Small kernel factory: a[i + store_off] = a[i + load_off] + b[i]. *)
let offset_kernel ~load_off ~store_off =
  let b = B.make "dep" in
  let start = max 0 (max (-load_off) (-store_off)) in
  let i = B.loop b ~start "i" (Kernel.Tn_minus 8) in
  let x = B.load b "a" [ B.ix ~off:load_off i ] in
  B.store b "a" [ B.ix ~off:store_off i ] (B.addf b x (B.load b "b" [ B.ix i ]));
  B.finish b

let test_no_dep () =
  let b = B.make "nodep" in
  let i = B.loop b "i" Kernel.Tn in
  B.store b "a" [ B.ix i ] (B.load b "b" [ B.ix i ]);
  let k = B.finish b in
  check "no dependences" true (Dep.analyze k = []);
  check "unlimited" true (Dep.vf_limit k = Dep.Unlimited)

let test_backward_flow_distance_1 () =
  (* a[i] = a[i-1] + b[i]: classic recurrence, not vectorizable. *)
  let k = offset_kernel ~load_off:(-1) ~store_off:0 in
  check_int "max vf 1" 1 (limit_of k);
  check "not vectorizable" false (Dep.vectorizable k)

let test_backward_flow_distance_4 () =
  let k = offset_kernel ~load_off:(-4) ~store_off:0 in
  check_int "max vf 4" 4 (limit_of k);
  check "legal at 4" true (Dep.legal_for_vf k 4);
  check "illegal at 8" false (Dep.legal_for_vf k 8)

let test_forward_anti_any_vf () =
  (* a[i] = a[i+1] + b[i]: anti dependence with loads before stores. *)
  let k = offset_kernel ~load_off:1 ~store_off:0 in
  check "anti is unlimited" true (Dep.vf_limit k = Dep.Unlimited);
  let deps = Dep.analyze k in
  check "anti recorded" true
    (List.exists (fun d -> d.Dep.kind = Dep.Anti) deps)

let test_forward_flow_store_first () =
  (* a[i+2] = a[i] + b[i] where the store is at a higher address: the flow
     edge goes store -> later load, sink after source, so widening is safe
     only up to the distance. *)
  let k = offset_kernel ~load_off:0 ~store_off:2 in
  check_int "limited by distance 2" 2 (limit_of k)

let test_ziv_store () =
  let b = B.make "ziv" in
  let i = B.loop b "i" Kernel.Tn in
  B.store b "a" [ B.ix_const 0 ] (B.load b "b" [ B.ix i ]);
  let k = B.finish b in
  check_int "invariant store blocks" 1 (limit_of k);
  check "dany present" true
    (List.exists (fun d -> d.Dep.distance = Dep.Dany) (Dep.analyze k))

let test_ziv_read_only () =
  let b = B.make "zivr" in
  let i = B.loop b "i" Kernel.Tn in
  let fixedv = B.load b "c" [ B.ix_const 0 ] in
  B.store b "a" [ B.ix i ] (B.addf b fixedv (B.load b "b" [ B.ix i ]));
  let k = B.finish b in
  check "read-only invariant is fine" true (Dep.vf_limit k = Dep.Unlimited)

let test_interleaved_strides_independent () =
  (* a[2i] = a[2i+1] + 1: odd and even elements never meet. *)
  let b = B.make "odd" in
  let i = B.loop b "i" (Kernel.Tn_div 2) in
  let x = B.load b "a" [ B.ix ~scale:2 ~off:1 i ] in
  B.store b "a" [ B.ix ~scale:2 i ] (B.addf b x (B.cf 1.0));
  let k = B.finish b in
  check "strong siv: non-integer distance" true (Dep.analyze k = [])

let test_gcd_independence () =
  (* a[2i] = a[4j... simplistic: write a[2i], read a[2i+1]: covered above.
     Differing coefficients with incompatible offsets: a[2i] vs a[4i+1]. *)
  let b = B.make "gcd" in
  let i = B.loop b "i" (Kernel.Tn_div 4) in
  let x = B.load b "a" [ B.ix ~scale:4 ~off:1 i ] in
  B.store b "a" [ B.ix ~scale:2 i ] (B.addf b x (B.cf 1.0));
  let k = B.finish b in
  check "gcd proves independence" true (Dep.analyze k = [])

let test_weak_siv_unknown () =
  (* Write front crosses a moving read at a different rate: a[2i] vs a[i]. *)
  let b = B.make "weak" in
  let i = B.loop b "i" (Kernel.Tn_div 2) in
  let x = B.load b "a" [ B.ix i ] in
  B.store b "a" [ B.ix ~scale:2 i ] (B.addf b x (B.cf 1.0));
  let k = B.finish b in
  check_int "conservative" 1 (limit_of k)

let test_2d_row_independence () =
  (* aa[j][i] = aa[j-1][i]: rows differ, inner loop on i is free. *)
  let b = B.make "rows" in
  let j = B.loop b ~start:1 "j" Kernel.Tn2 in
  let i = B.loop b "i" Kernel.Tn2 in
  let x = B.load b "aa" [ B.ix ~off:(-1) j; B.ix i ] in
  B.store b "aa" [ B.ix j; B.ix i ] x;
  let k = B.finish b in
  check "distinct rows never alias in the inner loop" true
    (Dep.vf_limit k = Dep.Unlimited)

let test_2d_column_recurrence () =
  let b = B.make "cols" in
  let j = B.loop b "j" Kernel.Tn2 in
  let i = B.loop b ~start:1 "i" Kernel.Tn2 in
  let x = B.load b "aa" [ B.ix j; B.ix ~off:(-1) i ] in
  B.store b "aa" [ B.ix j; B.ix i ] x;
  let k = B.finish b in
  check_int "column recurrence blocks" 1 (limit_of k)

let test_indirect_assumed () =
  let b = B.make "gath" in
  let i = B.loop b "i" Kernel.Tn in
  let idx = B.load_index b "ip" [ B.ix i ] in
  B.store_ix b "a" idx (B.load b "b" [ B.ix i ]);
  let k = B.finish b in
  check "scatter legal under assumption" true (Dep.vectorizable k);
  check "assumption flagged" true (Dep.needs_runtime_assumption k)

let test_reduction_no_memory_dep () =
  let b = B.make "red" in
  let i = B.loop b "i" Kernel.Tn in
  B.reduce b "s" Op.Rsum (B.load b "a" [ B.ix i ]);
  let k = B.finish b in
  check "reductions carry no memory dependence" true
    (Dep.vf_limit k = Dep.Unlimited)

let test_rel_n_cancels () =
  (* Reversed traversal of both access and store: distances still exact. *)
  let b = B.make "revk" in
  let i = B.loop b "i" (Kernel.Tn_minus 1) in
  let x = B.load b "a" [ B.ix_rev ~off:(-1) i ] in
  B.store b "a" [ B.ix_rev i ] (B.addf b x (B.cf 1.0));
  let k = B.finish b in
  (* load (n-1)-i-1, store (n-1)-i: the load reads what a LATER iteration
     overwrites -> anti, forward -> legal. *)
  check "reverse anti legal" true (Dep.vf_limit k = Dep.Unlimited)

let test_param_offset_unknown () =
  let b = B.make "paramoff" in
  let i = B.loop b "i" (Kernel.Tn_minus 8) in
  let d = B.ix_plus_param b (B.ix i) ("k", 1) in
  let x = B.load b "a" [ d ] in
  B.store b "a" [ B.ix i ] (B.addf b x (B.cf 1.0));
  let k = B.finish b in
  check_int "symbolic offset conservative" 1 (limit_of k)

(* --- golden verdicts over the TSVC registry ------------------------------ *)

let expect_legal =
  [ ("s000", true); ("s111", true); ("s112", true); ("s113", false);
    ("s114", false); ("s115", false); ("s116", false); ("s119", true);
    ("s121", true); ("s1221", true); ("s211", false); ("s212", false);
    ("s1213", true); ("s221", false); ("s231", true); ("s232", false);
    ("s241", false); ("s251", true); ("s254", true); ("s261", false);
    ("s271", true); ("s281", false); ("s291", true); ("s293", false);
    ("s311", true); ("s321", false); ("s323", false); ("s331", true);
    ("s341", true); ("s424", false); ("s4112", true); ("va", true);
    ("vag", true); ("s3112", false); ("s2244", true); ("s3251", true) ]

let test_golden_verdicts () =
  List.iter
    (fun (name, expected) ->
      let e = Tsvc.Registry.find_exn name in
      check (Printf.sprintf "%s legality" name) expected
        (Dep.vectorizable e.kernel))
    expect_legal

let test_distance_limits () =
  check_int "s1221 distance 4" 4
    (limit_of (Tsvc.Registry.find_exn "s1221").kernel);
  check_int "s322 distance 2" 2
    (limit_of (Tsvc.Registry.find_exn "s322").kernel);
  check_int "s423 distance 2" 2
    (limit_of (Tsvc.Registry.find_exn "s423").kernel)

(* --- seeded-bug negatives: exact distances, no off-by-one ----------------- *)

(* A planted carried dependence at distance d must yield exactly [Max_vf d]:
   a verdict of d-1 would be needlessly conservative, d+1 or Unlimited
   unsound. *)
let test_seeded_distance_exact () =
  List.iter
    (fun d ->
      let k = offset_kernel ~load_off:(-d) ~store_off:0 in
      check_int (Printf.sprintf "distance %d exact" d) d (limit_of k);
      check (Printf.sprintf "legal at %d" d) true (Dep.legal_for_vf k d);
      check
        (Printf.sprintf "illegal at %d" (d + 1))
        false
        (Dep.legal_for_vf k (d + 1)))
    [ 1; 2; 3; 4; 5; 6 ]

(* --- the nest-wide graph -------------------------------------------------- *)

module G = Vdeps.Depgraph
module S = Vdeps.Subscript
module L = Vdeps.Legality

(* aa[j][i] = aa[j-1][i+1]: flow dependence with distance vector (1,-1),
   direction (<,>) — the canonical interchange-illegal shape. *)
let lt_gt_kernel () =
  let b = B.make "ltgt" in
  let j = B.loop b ~start:1 "j" Kernel.Tn2 in
  let i = B.loop b "i" (Kernel.Tn2_minus 1) in
  let x = B.load b "aa" [ B.ix ~off:(-1) j; B.ix ~off:1 i ] in
  B.store b "aa" [ B.ix j; B.ix i ] x;
  B.finish b

let test_graph_lt_gt_edge () =
  let g = G.build (lt_gt_kernel ()) in
  let e =
    match
      List.find_opt (fun (e : G.edge) -> e.e_kind = Dep.Flow) g.G.g_edges
    with
    | Some e -> e
    | None -> Alcotest.fail "flow edge missing"
  in
  check "direction (<,>)" true
    (e.G.e_dirs = [| S.Lt; S.Gt |]);
  check "distance (1,-1)" true (e.G.e_dist = [| Some 1; Some (-1) |]);
  check "carried by the outer loop" true (e.G.e_carried = G.Carried 0)

(* An interchange made illegal by a (<,>) direction vector must be refused. *)
let test_interchange_lt_gt_refused () =
  let k = lt_gt_kernel () in
  check "legality verdict illegal" true
    (match L.interchange_verdict k with L.Ix_illegal "aa" -> true | _ -> false);
  check "inner loop itself is fine" true (Dep.vf_limit k = Dep.Unlimited)

let test_graph_outer_carried () =
  (* aa[j][i] = aa[j-1][i]: carried at depth 0, inner loop free. *)
  let b = B.make "rows2" in
  let j = B.loop b ~start:1 "j" Kernel.Tn2 in
  let i = B.loop b "i" Kernel.Tn2 in
  let x = B.load b "aa" [ B.ix ~off:(-1) j; B.ix i ] in
  B.store b "aa" [ B.ix j; B.ix i ] x;
  let k = B.finish b in
  let g = G.build k in
  let counts = G.carried_counts g in
  check_int "one dep carried at the outer depth" 1 counts.(0);
  check_int "inner depth free" 0 counts.(1);
  check "min carried distance 1" true (G.min_carried_distance g = Some 1)

let test_graph_loop_independent () =
  (* a[i] written then read in the same iteration: a loop-independent edge
     the innermost verdict drops but the graph records. *)
  let b = B.make "li" in
  let i = B.loop b "i" Kernel.Tn in
  B.store b "a" [ B.ix i ] (B.load b "b" [ B.ix i ]);
  B.store b "c" [ B.ix i ] (B.load b "a" [ B.ix i ]);
  let k = B.finish b in
  let g = G.build k in
  check "one loop-independent edge" true
    (List.length
       (List.filter (fun e -> e.G.e_carried = G.Independent) g.G.g_edges)
     = 1);
  check "nothing carried" true (G.min_carried_distance g = None);
  check "unlimited" true (Dep.vf_limit k = Dep.Unlimited)

(* --- idioms ---------------------------------------------------------------- *)

module I = Vdeps.Idiom

let test_idiom_reduction () =
  let k = (Tsvc.Registry.find_exn "s311").kernel in
  let idioms = I.recognize k in
  check "reduction tagged" true (I.has_reduction idioms);
  check "admissible" true (I.reductions_vectorizable k)

let test_idiom_scan () =
  (* a[i] = a[i-1] + b[i]: the prefix-sum shape. *)
  let b = B.make "scan" in
  let i = B.loop b ~start:1 "i" (Kernel.Tn_minus 1) in
  let prev = B.load b "a" [ B.ix ~off:(-1) i ] in
  B.store b "a" [ B.ix i ] (B.addf b prev (B.load b "b" [ B.ix i ]));
  let k = B.finish b in
  check "scan tagged" true
    (List.exists
       (function I.Scan { array = "a"; op = Op.Add } -> true | _ -> false)
       (I.recognize k))

let test_idiom_recurrence_distance () =
  let k = offset_kernel ~load_off:(-4) ~store_off:0 in
  check "distance-4 recurrence tagged" true
    (List.exists
       (function
         | I.Recurrence { array = "a"; distance = 4 } -> true | _ -> false)
       (I.recognize k))

(* --- legality summary ------------------------------------------------------- *)

let test_legality_summary () =
  let s = L.summarize (Tsvc.Registry.find_exn "s1221").kernel in
  check "llv legal exactly up to 4" true (L.legal_vfs s.L.l_llv = [ 2; 4 ]);
  check "slp matches" true (L.legal_vfs s.L.l_slp = [ 2; 4 ]);
  check "unroll always legal" true
    (L.legal_vfs s.L.l_unroll = [ 2; 4; 8; 16 ]);
  let sr = L.summarize (Tsvc.Registry.find_exn "s311").kernel in
  check "reduction loop slp-legal under the idiom tag" true
    (L.legal_vfs sr.L.l_slp = [ 2; 4; 8; 16 ]);
  check "idiom tag present" true (I.has_reduction sr.L.l_idioms)

let tests =
  [ Alcotest.test_case "no dep" `Quick test_no_dep;
    Alcotest.test_case "backward flow d=1" `Quick test_backward_flow_distance_1;
    Alcotest.test_case "backward flow d=4" `Quick test_backward_flow_distance_4;
    Alcotest.test_case "forward anti" `Quick test_forward_anti_any_vf;
    Alcotest.test_case "forward flow store-first" `Quick test_forward_flow_store_first;
    Alcotest.test_case "ziv store" `Quick test_ziv_store;
    Alcotest.test_case "ziv read only" `Quick test_ziv_read_only;
    Alcotest.test_case "interleaved strides" `Quick test_interleaved_strides_independent;
    Alcotest.test_case "gcd independence" `Quick test_gcd_independence;
    Alcotest.test_case "weak siv" `Quick test_weak_siv_unknown;
    Alcotest.test_case "2-d rows independent" `Quick test_2d_row_independence;
    Alcotest.test_case "2-d column recurrence" `Quick test_2d_column_recurrence;
    Alcotest.test_case "indirect assumed" `Quick test_indirect_assumed;
    Alcotest.test_case "reductions free" `Quick test_reduction_no_memory_dep;
    Alcotest.test_case "rel_n cancels" `Quick test_rel_n_cancels;
    Alcotest.test_case "param offset" `Quick test_param_offset_unknown;
    Alcotest.test_case "golden verdicts" `Quick test_golden_verdicts;
    Alcotest.test_case "distance limits" `Quick test_distance_limits;
    Alcotest.test_case "seeded distances exact" `Quick test_seeded_distance_exact;
    Alcotest.test_case "graph (<,>) edge" `Quick test_graph_lt_gt_edge;
    Alcotest.test_case "interchange (<,>) refused" `Quick
      test_interchange_lt_gt_refused;
    Alcotest.test_case "graph outer carried" `Quick test_graph_outer_carried;
    Alcotest.test_case "graph loop independent" `Quick
      test_graph_loop_independent;
    Alcotest.test_case "idiom reduction" `Quick test_idiom_reduction;
    Alcotest.test_case "idiom scan" `Quick test_idiom_scan;
    Alcotest.test_case "idiom recurrence distance" `Quick
      test_idiom_recurrence_distance;
    Alcotest.test_case "legality summary" `Quick test_legality_summary ]
