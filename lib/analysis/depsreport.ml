(* Dependence reporting.

   [summarize] renders the nest-wide dependence graph, idiom tags and the
   legality oracle's verdict space for one kernel — the payload behind
   [vecmodel deps].  The oracle's empirical soundness gate is
   [Crosscheck]'s [Semantics] obligation. *)

open Vir
module G = Vdeps.Depgraph
module S = Vdeps.Subscript
module L = Vdeps.Legality

type summary = {
  s_kernel : string;
  s_graph : G.t;
  s_legality : L.t;
}

let summarize (k : Kernel.t) : summary =
  { s_kernel = k.Kernel.name; s_graph = G.build k; s_legality = L.summarize k }

(* Kernels are independent; parallel_map keeps registry order. *)
let summarize_kernels ks = Vpar.Pool.parallel_map summarize ks

(* --- JSON rendering ---------------------------------------------------------- *)

(* Edges come out of [Depgraph.build] sorted and deduplicated, so the JSON
   is byte-stable whatever the worker count. *)

let int_or_null = function
  | Some n -> Vjson.Num (float_of_int n)
  | None -> Vjson.Null

let edge_to_json (e : G.edge) =
  Vjson.(
    Obj
      [ ("array", Str e.G.e_array); ("src", Num (float_of_int e.G.e_src));
        ("snk", Num (float_of_int e.G.e_snk));
        ("kind", Str (Vdeps.Dependence.kind_to_string e.G.e_kind));
        ("dirs", Str (S.dirs_to_string e.G.e_dirs));
        ("dist", List (List.map int_or_null (Array.to_list e.G.e_dist)));
        ("carried", Str (G.carried_to_string e.G.e_carried));
        ("assumed", Bool e.G.e_assumed) ])

let vf_flags_to_json flags =
  Vjson.(
    List
      (List.map
         (fun (vf, ok) -> Obj [ ("vf", Num (float_of_int vf)); ("legal", Bool ok) ])
         flags))

let summary_to_json (s : summary) =
  let g = s.s_graph in
  let l = s.s_legality in
  let carried = Array.to_list (G.carried_counts g) in
  Vjson.(
    Obj
      [ ("kernel", Str s.s_kernel); ("depth", Num (float_of_int g.G.g_depth));
        ("loop_vars", List (List.map (fun v -> Str v) g.G.g_loop_vars));
        ("edges", List (List.map edge_to_json g.G.g_edges));
        ("carried_counts", List (List.map (fun c -> Num (float_of_int c)) carried));
        ("min_carried_distance", int_or_null (G.min_carried_distance g));
        ( "vf_limit",
          match l.L.l_vf_limit with
          | Vdeps.Dependence.Unlimited -> Null
          | Vdeps.Dependence.Max_vf m -> Num (float_of_int m) );
        ("assumed", Bool l.L.l_assumed);
        ( "idioms",
          List (List.map (fun i -> Str (Vdeps.Idiom.to_string i)) l.L.l_idioms) );
        ("llv", vf_flags_to_json l.L.l_llv); ("slp", vf_flags_to_json l.L.l_slp);
        ("unroll", vf_flags_to_json l.L.l_unroll);
        ("interchange", Str (L.ix_verdict_to_string l.L.l_interchange)) ])

(* --- human rendering --------------------------------------------------------- *)

let print_summary oc (s : summary) =
  let g = s.s_graph in
  Printf.fprintf oc "%s: depth %d (%s), %d dependence edge(s)\n" s.s_kernel
    g.G.g_depth
    (String.concat "," g.G.g_loop_vars)
    (List.length g.G.g_edges);
  List.iter
    (fun e -> Printf.fprintf oc "  %s\n" (Format.asprintf "%a" G.pp_edge e))
    g.G.g_edges;
  (match s.s_legality.L.l_idioms with
  | [] -> ()
  | idioms ->
      Printf.fprintf oc "  idioms: %s\n"
        (String.concat ", " (List.map Vdeps.Idiom.to_string idioms)));
  Printf.fprintf oc "%s\n"
    (Format.asprintf "%a" L.pp s.s_legality)
