(* Dependence reporting and the legality-vs-validator cross-check.

   [summarize] renders the nest-wide dependence graph, idiom tags and the
   legality oracle's verdict space for one kernel — the payload behind
   [vecmodel deps].  [crosscheck] is the empirical soundness gate: for every
   (transform, VF) configuration the oracle rules on, force the transform
   (bypassing the oracle) and ask the translation validator *and* the
   reference interpreter whether the result preserves semantics.  An
   oracle-legal configuration the validator rejects is a soundness bug and
   fails the gate; an oracle-illegal configuration the validator accepts is
   mere conservatism and only lowers recall. *)

open Vir
module G = Vdeps.Depgraph
module S = Vdeps.Subscript
module L = Vdeps.Legality
module I = Vinterp.Interp

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

(* --- the cross-check ---------------------------------------------------------- *)

type verdict =
  | True_positive  (* oracle legal, validator agrees *)
  | False_positive  (* oracle legal, validator refutes: soundness bug *)
  | False_negative  (* oracle illegal, validator passes: conservatism *)
  | True_negative  (* oracle illegal, validator refutes *)
  | Inapplicable of string  (* transform failed for a non-legality reason *)

type config = {
  c_kernel : string;
  c_transform : Driver.transform;  (* Tllv or Tslp only *)
  c_vf : int;
  c_verdict : verdict;
}

(* Reductions tolerate reassociation noise (relative 1e-4); NaN equals
   NaN. *)
let red_equal r1 r2 =
  List.length r1 = List.length r2
  && List.for_all2
       (fun (n1, v1) (n2, v2) ->
         String.equal n1 n2
         && (Equiv.float_eq v1 v2
             || abs_float (v1 -. v2)
                <= 1e-4 *. (abs_float v1 +. abs_float v2 +. 1.0)))
       r1 r2

(* The source kernel's behaviour at size [n]: its final memory and
   reductions, or [None] where the reference interpreter raises (no
   reference behaviour at that size).  Each size runs once, however many
   configurations of the kernel ask. *)
let reference (k : Kernel.t) =
  let memo = Vpar.Memo.create () in
  fun n ->
    Vpar.Memo.find_or_compute memo n (fun () ->
        match I.run ~n k with
        | exception _ -> None
        | rs -> Some (Vinterp.Env.snapshot rs.I.env, rs.I.reductions))

(* The validator: multiset translation validation AND reference-interpreter
   equivalence at every size in [Equiv.semantic_sizes].  The multiset check
   alone cannot see execution-order violations (it compares which locations
   are touched, not in what order), so the interpreter leg is what catches
   an illegal width actually computing wrong values. *)
let validates_against reference (vk : Vvect.Vinstr.vkernel) =
  Diag.count_errors (Equiv.vkernel_diags vk) = 0
  && List.for_all
       (fun n ->
         match reference n with
         | None -> true
         | Some (mem, reds) -> (
             match Vvect.Vexec.run ~n vk with
             | exception _ -> false
             | rv ->
                 Vinterp.Env.snapshot rv.I.env = mem
                 && red_equal reds rv.I.reductions))
       Equiv.semantic_sizes

let validates (k : Kernel.t) (vk : Vvect.Vinstr.vkernel) : bool =
  validates_against (reference k) vk

let check_config (k : Kernel.t) reference (tr : Driver.transform) ~vf : verdict =
  let legal, forced =
    match tr with
    | Driver.Tllv ->
        ( L.llv_ok k ~vf,
          (match Vvect.Llv.vectorize ~vf ~force:true k with
          | Ok vk -> Ok vk
          | Error e -> Error (Vvect.Llv.error_to_string e)) )
    | Driver.Tslp ->
        ( L.slp_ok k ~vf,
          (match Vvect.Slp.vectorize ~vf ~force:true k with
          | Ok vk -> Ok vk
          | Error e -> Error (Vvect.Slp.error_to_string e)) )
    | Driver.Tunroll -> invalid_arg "check_config: unroll is always legal"
  in
  match forced with
  | Error reason -> Inapplicable reason
  | Ok vk -> (
      let ok = validates_against reference vk in
      match (legal, ok) with
      | true, true -> True_positive
      | true, false -> False_positive
      | false, true -> False_negative
      | false, false -> True_negative)

let default_vfs = Driver.default_vfs

let crosscheck_kernel ?(vfs = default_vfs) (k : Kernel.t) : config list =
  let reference = reference k in
  List.concat_map
    (fun tr ->
      List.map
        (fun vf ->
          {
            c_kernel = k.Kernel.name;
            c_transform = tr;
            c_vf = vf;
            c_verdict = check_config k reference tr ~vf;
          })
        vfs)
    [ Driver.Tllv; Driver.Tslp ]

let crosscheck ?vfs ks =
  List.concat (Vpar.Pool.parallel_map (crosscheck_kernel ?vfs) ks)

type stats = {
  st_tp : int;
  st_fp : int;
  st_fn : int;
  st_tn : int;
  st_inapplicable : int;
}

let stats configs =
  List.fold_left
    (fun st c ->
      match c.c_verdict with
      | True_positive -> { st with st_tp = st.st_tp + 1 }
      | False_positive -> { st with st_fp = st.st_fp + 1 }
      | False_negative -> { st with st_fn = st.st_fn + 1 }
      | True_negative -> { st with st_tn = st.st_tn + 1 }
      | Inapplicable _ -> { st with st_inapplicable = st.st_inapplicable + 1 })
    { st_tp = 0; st_fp = 0; st_fn = 0; st_tn = 0; st_inapplicable = 0 }
    configs

(* Precision: of the configurations the oracle admits, the fraction the
   validator confirms.  Soundness demands 1.0.  Recall: of the
   configurations that are in fact safe, the fraction the oracle admits —
   a measure of (useful) aggressiveness. *)
let precision st =
  if st.st_tp + st.st_fp = 0 then 1.0
  else float_of_int st.st_tp /. float_of_int (st.st_tp + st.st_fp)

let recall st =
  if st.st_tp + st.st_fn = 0 then 1.0
  else float_of_int st.st_tp /. float_of_int (st.st_tp + st.st_fn)

let sound configs =
  List.for_all (fun c -> c.c_verdict <> False_positive) configs

let failures configs =
  List.filter (fun c -> c.c_verdict = False_positive) configs

let config_to_string c =
  let v =
    match c.c_verdict with
    | True_positive -> "legal, validated"
    | False_positive -> "LEGAL BUT REFUTED"
    | False_negative -> "refused, but safe"
    | True_negative -> "refused, refuted"
    | Inapplicable why -> "inapplicable: " ^ why
  in
  Printf.sprintf "%s %s vf=%d: %s" c.c_kernel
    (Driver.transform_to_string c.c_transform)
    c.c_vf v
