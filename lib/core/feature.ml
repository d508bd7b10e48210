(* Feature extraction: the paper formulates each loop body as a linear
   equation over instruction-class counts.  Memory operations are split by
   access pattern (the dominant cost driver), and reductions contribute the
   accumulation they imply.  The same vocabulary describes scalar bodies and
   vectorized bodies, so cost-targeted fits can price both with one weight
   vector. *)

open Vir

type cls =
  | F_int_alu
  | F_int_mul
  | F_int_div
  | F_fp_add
  | F_fp_mul
  | F_fp_fma
  | F_fp_div
  | F_fp_sqrt
  | F_cmp
  | F_select
  | F_cast
  | F_load_unit  (* |stride| = 1 *)
  | F_load_inv  (* loop-invariant address *)
  | F_load_strided  (* |stride| > 1 or row walk *)
  | F_load_gather
  | F_store_unit
  | F_store_strided
  | F_store_scatter
  | F_shuffle  (* lane moves; only nonzero for vector bodies *)
  | F_reduction

let all =
  [ F_int_alu; F_int_mul; F_int_div; F_fp_add; F_fp_mul; F_fp_fma; F_fp_div;
    F_fp_sqrt; F_cmp; F_select; F_cast; F_load_unit; F_load_inv;
    F_load_strided; F_load_gather; F_store_unit; F_store_strided;
    F_store_scatter; F_shuffle; F_reduction ]

let dim = List.length all

let index =
  let tbl = Hashtbl.create 32 in
  List.iteri (fun i c -> Hashtbl.replace tbl c i) all;
  fun c -> Hashtbl.find tbl c

let name = function
  | F_int_alu -> "int_alu"
  | F_int_mul -> "int_mul"
  | F_int_div -> "int_div"
  | F_fp_add -> "fp_add"
  | F_fp_mul -> "fp_mul"
  | F_fp_fma -> "fp_fma"
  | F_fp_div -> "fp_div"
  | F_fp_sqrt -> "fp_sqrt"
  | F_cmp -> "cmp"
  | F_select -> "select"
  | F_cast -> "cast"
  | F_load_unit -> "load_unit"
  | F_load_inv -> "load_inv"
  | F_load_strided -> "load_strided"
  | F_load_gather -> "load_gather"
  | F_store_unit -> "store_unit"
  | F_store_strided -> "store_strided"
  | F_store_scatter -> "store_scatter"
  | F_shuffle -> "shuffle"
  | F_reduction -> "reduction"

let names = List.map name all

let of_opclass (c : Vmachine.Opclass.t) =
  match c with
  | Vmachine.Opclass.Int_alu -> F_int_alu
  | Vmachine.Opclass.Int_mul -> F_int_mul
  | Vmachine.Opclass.Int_div -> F_int_div
  | Vmachine.Opclass.Fp_add -> F_fp_add
  | Vmachine.Opclass.Fp_mul -> F_fp_mul
  | Vmachine.Opclass.Fp_fma -> F_fp_fma
  | Vmachine.Opclass.Fp_div -> F_fp_div
  | Vmachine.Opclass.Fp_sqrt -> F_fp_sqrt
  | Vmachine.Opclass.Cmp -> F_cmp
  | Vmachine.Opclass.Select -> F_select
  | Vmachine.Opclass.Cast -> F_cast
  | Vmachine.Opclass.Load | Vmachine.Opclass.Load_unaligned -> F_load_unit
  | Vmachine.Opclass.Store | Vmachine.Opclass.Store_unaligned -> F_store_unit
  | Vmachine.Opclass.Shuffle -> F_shuffle

let load_cls (stride : Kernel.stride) =
  match stride with
  | Kernel.Sconst 0 -> F_load_inv
  | Kernel.Sconst c when abs c = 1 -> F_load_unit
  | Kernel.Sconst _ | Kernel.Srow _ -> F_load_strided
  | Kernel.Sindirect -> F_load_gather

let store_cls (stride : Kernel.stride) =
  match stride with
  | Kernel.Sconst c when abs c <= 1 -> F_store_unit
  | Kernel.Sconst _ | Kernel.Srow _ -> F_store_strided
  | Kernel.Sindirect -> F_store_scatter

(* Raw instruction-class counts of the scalar loop body. *)
let counts (k : Kernel.t) =
  let f = Array.make dim 0.0 in
  let bump c = f.(index c) <- f.(index c) +. 1.0 in
  List.iter
    (fun (i : Instr.t) ->
      match i with
      | Instr.Load { addr; _ } -> bump (load_cls (Kernel.access_stride k addr))
      | Instr.Store { addr; _ } -> bump (store_cls (Kernel.access_stride k addr))
      | _ -> bump (of_opclass (Vmachine.Opclass.of_instr i)))
    k.body;
  List.iter (fun (_ : Kernel.reduction) -> bump F_reduction) k.reductions;
  f

(* Vector-body counts, for cost-targeted fits: one wide op counts 1, a
   scalarized group counts its parts. *)
let vcounts (vk : Vvect.Vinstr.vkernel) =
  let f = Array.make dim 0.0 in
  let bump ?(by = 1.0) c = f.(index c) <- f.(index c) +. by in
  let vf = float_of_int vk.vf in
  List.iter
    (fun (vi : Vvect.Vinstr.t) ->
      match vi with
      | Vvect.Vinstr.Vbin { ty; op; _ } ->
          bump (of_opclass (Vmachine.Opclass.of_binop ty op))
      | Vvect.Vinstr.Vuna { ty; op; _ } ->
          bump (of_opclass (Vmachine.Opclass.of_unop ty op))
      | Vvect.Vinstr.Vfma _ -> bump F_fp_fma
      | Vvect.Vinstr.Vcmp _ -> bump F_cmp
      | Vvect.Vinstr.Vselect _ -> bump F_select
      | Vvect.Vinstr.Vcast _ -> bump F_cast
      | Vvect.Vinstr.Viota _ -> bump F_int_alu
      | Vvect.Vinstr.Vload { access; _ } -> (
          match access with
          | Vvect.Vinstr.Contig -> bump F_load_unit
          | Vvect.Vinstr.Rev ->
              bump F_load_unit;
              bump F_shuffle
          | Vvect.Vinstr.Strided _ | Vvect.Vinstr.Row ->
              bump ~by:vf F_load_strided;
              bump ~by:vf F_shuffle)
      | Vvect.Vinstr.Vstore { access; _ } -> (
          match access with
          | Vvect.Vinstr.Contig -> bump F_store_unit
          | Vvect.Vinstr.Rev ->
              bump F_store_unit;
              bump F_shuffle
          | Vvect.Vinstr.Strided _ | Vvect.Vinstr.Row ->
              bump ~by:vf F_store_strided;
              bump ~by:vf F_shuffle)
      | Vvect.Vinstr.Vgather _ ->
          bump ~by:vf F_load_gather
      | Vvect.Vinstr.Vscatter _ -> bump ~by:vf F_store_scatter
      | Vvect.Vinstr.Vpack { srcs; _ } ->
          bump ~by:(float_of_int (Array.length srcs)) F_shuffle
      | Vvect.Vinstr.Vextract _ -> bump F_shuffle
      | Vvect.Vinstr.Sc { instr; _ } -> (
          match instr with
          | Instr.Load { addr; _ } ->
              bump (load_cls (Kernel.access_stride vk.scalar addr))
          | Instr.Store { addr; _ } ->
              bump (store_cls (Kernel.access_stride vk.scalar addr))
          | _ -> bump (of_opclass (Vmachine.Opclass.of_instr instr))))
    vk.vbody;
  List.iter (fun (_ : Vvect.Vinstr.vreduction) -> bump F_reduction)
    vk.vreductions;
  f

let total f = Array.fold_left ( +. ) 0.0 f

(* Rated ("block composition") features: each class as a fraction of the
   block, exposing arithmetic intensity to the linear model. *)
let rate f =
  let t = total f in
  if t = 0.0 then Array.copy f else Array.map (fun v -> v /. t) f

let rated k = rate (counts k)

(* --- extended features: the paper's "add more code features" next step --- *)

let mem_classes =
  [ F_load_unit; F_load_inv; F_load_strided; F_load_gather; F_store_unit;
    F_store_strided; F_store_scatter ]

let extended_names = names @ [ "x_intensity"; "x_log_size"; "x_recurrence" ]

(* The three derived columns [extended] appends to the rated features of a
   body with counts [f]: arithmetic intensity (compute ops per memory op),
   body size, and the strength of the tightest memory-carried flow
   dependence (1/distance) - the latency chains the linear counts cannot
   see. *)
let derived f (k : Kernel.t) =
  let mem =
    List.fold_left (fun acc c -> acc +. f.(index c)) 0.0 mem_classes
  in
  let arith = total f -. mem in
  let intensity = arith /. (mem +. 1.0) in
  let log_size = log (1.0 +. total f) in
  let recurrence =
    List.fold_left
      (fun acc (d : Vdeps.Dependence.dep) ->
        match (d.kind, d.distance) with
        | Vdeps.Dependence.Flow, Vdeps.Dependence.Dconst dist ->
            Float.max acc (1.0 /. float_of_int dist)
        | _ -> acc)
      0.0
      (Vdeps.Dependence.analyze k)
  in
  [| intensity; log_size; recurrence |]

let extended (k : Kernel.t) =
  let f = counts k in
  Array.append (rate f) (derived f k)

(* --- absint features: columns only the abstract interpretation can fill --- *)

let absint_names = extended_names @ [ "x_aligned_frac"; "x_const_trip" ]

(* The provably-aligned fraction of the body's memory accesses at [vf] and a
   provable-constant-trip-count flag.  Both are facts about the *vectorized*
   execution a pure instruction count cannot see: alignment decides which
   load/store path every block takes, and a constant trip count means the
   epilogue's share never shrinks with n. *)
let absint_columns ~n ~vf k =
  [| Vanalysis.Absint.aligned_fraction ~n ~vf k;
     Vanalysis.Absint.const_trip_flag k |]

(* --- opt features: counts taken after the SSA normalization pipeline --- *)

let opt_names = absint_names @ [ "x_norm_ratio"; "x_hoist_frac" ]

(* The opt columns of the *normalized* body [nk] (what the vectorizer
   actually prices), given the source and normalized counts: how much of
   the source count survives GVN/DCE/DSE/folding (source-level redundancy
   inflates raw counts without costing cycles) and the loop-invariant
   fraction LICM pins to the preheader prefix (work the loop does not pay
   per iteration). *)
let opt_columns ~raw ~norm_raw nk =
  let orig = total raw in
  let ratio = if orig = 0.0 then 1.0 else total norm_raw /. orig in
  [| ratio; Vanalysis.Opt.hoisted_fraction nk |]

let pp fmt f =
  List.iteri
    (fun i c ->
      if f.(i) <> 0.0 then Format.fprintf fmt "%s=%g " (name c) f.(i))
    all

(* --- deps features: columns only the dependence engine can fill --- *)

let deps_names =
  opt_names
  @ [ "x_min_carried"; "x_carried_outer"; "x_carried_inner";
      "x_idiom_reduction"; "x_idiom_recurrence" ]

(* What the nest-wide dependence graph knows: the tightest loop-carried
   distance anywhere in the nest (1/distance, the serialization pressure a
   legal-but-narrow width pays), carried-edge counts split outer vs
   innermost (an outer-carried dependence is free for the vectorizer, an
   inner-carried one is exactly what caps the width), and the recognized
   idiom flags (a reduction vectorizes through a horizontal combine with
   its own cost shape; a first-order recurrence serializes). *)
let deps_columns (k : Kernel.t) =
  let g = Vdeps.Depgraph.build k in
  let per_depth = Vdeps.Depgraph.carried_counts g in
  let depth = Array.length per_depth in
  let inner = if depth = 0 then 0 else per_depth.(depth - 1) in
  let outer = Array.fold_left ( + ) 0 per_depth - inner in
  let min_carried =
    match Vdeps.Depgraph.min_carried_distance g with
    | Some d when d > 0 -> 1.0 /. float_of_int d
    | Some _ -> 1.0
    | None -> 0.0
  in
  let idioms = Vdeps.Idiom.recognize k in
  [|
    min_carried;
    float_of_int outer;
    float_of_int inner;
    (if Vdeps.Idiom.has_reduction idioms then 1.0 else 0.0);
    (if Vdeps.Idiom.has_recurrence idioms then 1.0 else 0.0);
  |]

let cert_names = deps_names @ [ "x_cert_safe_frac"; "x_cert_guard_free" ]

(* What the static safety certificate knows: the certified-safe fraction of
   the body's memory accesses and whether every affine access is proven
   (guard-free).  Both proxy for how much bounds bookkeeping a vectorized
   loop would carry at run time — a guard-free kernel vectorizes without
   per-block range checks, a low certified fraction forecasts guarded
   (slower) vector bodies. *)
let cert_columns (c : Vanalysis.Cert.t) =
  [| Vanalysis.Cert.safe_frac c;
     (if c.Vanalysis.Cert.ct_guard_free then 1.0 else 0.0) |]

(* --- one kernel's analysis --------------------------------------------------

   The feature kinds are two prefix chains: rated ⊂ extended ⊂ absint over
   the source body, and opt ⊂ deps ⊂ cert, where opt starts from absint over
   the normalized body.  Each field below forces only its prefix, once, so
   a sample build normalizes once and builds the dependence graph and the
   certificate once.  Deps and cert append columns of the *source* body. *)

type analysis = {
  raw : float array Lazy.t;
  norm_raw : float array Lazy.t;
  rated : float array Lazy.t;
  extended : float array Lazy.t;
  absint : float array Lazy.t;
  opt : float array Lazy.t;
  deps : float array Lazy.t;
  cert : float array Lazy.t;
}

let analyze ~n ~vf (k : Kernel.t) =
  let force = Lazy.force in
  let raw = lazy (counts k) in
  let rated = lazy (rate (force raw)) in
  let extended = lazy (Array.append (force rated) (derived (force raw) k)) in
  let absint = lazy (Array.append (force extended) (absint_columns ~n ~vf k)) in
  let norm = lazy (Vanalysis.Opt.normalize k) in
  let norm_raw = lazy (counts (force norm)) in
  let opt =
    lazy
      (let nk = force norm and nraw = force norm_raw in
       Array.concat
         [ rate nraw; derived nraw nk; absint_columns ~n ~vf nk;
           opt_columns ~raw:(force raw) ~norm_raw:nraw nk ])
  in
  let deps = lazy (Array.append (force opt) (deps_columns k)) in
  let cert =
    lazy
      (Array.append (force deps) (cert_columns (Vanalysis.Cert.certify ~vf k)))
  in
  { raw; norm_raw; rated; extended; absint; opt; deps; cert }

let absint ~n ~vf k = Lazy.force (analyze ~n ~vf k).absint
let opt ~n ~vf k = Lazy.force (analyze ~n ~vf k).opt
let deps ~n ~vf k = Lazy.force (analyze ~n ~vf k).deps
let cert ~n ~vf k = Lazy.force (analyze ~n ~vf k).cert
