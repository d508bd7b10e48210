(* SSA-based scalar optimizer.

   The cost models count instructions, and the paper's fit assumes the
   counts of a *compiled* body — i.e. after the scalar cleanup every real
   compiler runs before vectorizing.  This pipeline normalizes a kernel the
   same way, built on the reusable analyses ([Ssa] form, [Avail]
   value numbering, [Dataflow] liveness/invariance, [Absint] value ranges):

     constant-fold   reaching constants folded into immediates, integer
                     algebraic identities (x+0, x*1, x&0, shifts by 0, ...)
     gvn             value numbering / CSE in body order,
                     commutative operands canonicalized, loads killed by
                     intervening same-array stores
     licm            loop-invariant code motion: invariant instructions
                     move to a "preheader prefix" at the front of the body
                     (the IR has no preheader block, and the interpreter
                     executes the prefix once per iteration with identical
                     results, so motion — not duplication — is the
                     semantics-preserving encoding of hoisting)
     strength-reduce induction-variable and other integer multiplies by
                     2^k become shifts; div/rem by 2^k become shift/mask
                     when the operand is provably non-negative (Absint)
     dse             stores overwritten by a later same-address store with
                     no intervening same-array load are removed
     dce             values that never reach a store or reduction are
                     removed

   Every pass is value-preserving bit for bit (no float reassociation, no
   speculative rewrites), which [validate] checks against the reference
   interpreter via [Equiv.semantic_diags], and no pass ever increases the
   body length.  This subsumes the old [Vir.Simplify] (fold/cse/dce), which
   it replaces. *)

open Vir

type pass = { p_name : string; p_run : Kernel.t -> Kernel.t }

(* --- rebuild: the SSA-preserving body surgery all passes share ------------- *)

(* Rebuild a body from a keep-mask and a position-aliasing map, fixing up
   every register reference (reduction sources included). *)
let rebuild (k : Kernel.t) ~keep ~replace =
  let body = Array.of_list k.Kernel.body in
  let n = Array.length body in
  let new_pos = Array.make n (-1) in
  let out = ref [] in
  let count = ref 0 in
  for pos = 0 to n - 1 do
    match replace pos with
    | Some target ->
        (* This position's value is an alias of [target]. *)
        new_pos.(pos) <- new_pos.(target)
    | None ->
        if keep pos then begin
          let remap = function
            | Instr.Reg r when r >= 0 && r < n && new_pos.(r) >= 0 ->
                Instr.Reg new_pos.(r)
            | op -> op
          in
          out := Instr.map_operands remap body.(pos) :: !out;
          new_pos.(pos) <- !count;
          incr count
        end
  done;
  let remap_red = function
    | Instr.Reg r when r >= 0 && r < n && new_pos.(r) >= 0 ->
        Instr.Reg new_pos.(r)
    | op -> op
  in
  {
    k with
    Kernel.body = List.rev !out;
    reductions =
      List.map
        (fun (r : Kernel.reduction) -> { r with red_src = remap_red r.red_src })
        k.reductions;
  }

(* Reorder the body by [order] (a permutation of positions), remapping
   registers.  Legal whenever the order keeps every definition before its
   uses. *)
let permute (k : Kernel.t) order =
  let body = Array.of_list k.Kernel.body in
  let n = Array.length body in
  let new_pos = Array.make n (-1) in
  List.iteri (fun i pos -> new_pos.(pos) <- i) order;
  let remap = function
    | Instr.Reg r when r >= 0 && r < n && new_pos.(r) >= 0 ->
        Instr.Reg new_pos.(r)
    | op -> op
  in
  {
    k with
    Kernel.body =
      List.map (fun pos -> Instr.map_operands remap body.(pos)) order;
    reductions =
      List.map
        (fun (r : Kernel.reduction) -> { r with red_src = remap r.red_src })
        k.reductions;
  }

(* --- dead-code elimination ------------------------------------------------- *)

let dce_run (k : Kernel.t) =
  let used = Kernel.used_regs k in
  let body = Array.of_list k.Kernel.body in
  rebuild k
    ~keep:(fun pos -> Instr.is_store body.(pos) || Hashtbl.mem used pos)
    ~replace:(fun _ -> None)

(* --- constant folding + integer algebraic identities ----------------------- *)

(* Only rewrites whose result is bit-identical under the interpreter are
   applied: float immediates fold (the fold performs the very operation the
   interpreter would), but float identities like x*1.0 are left alone — they
   can flip a NaN payload or a signed zero, and the validator compares
   values exactly. *)
let identity (instr : Instr.t) =
  match instr with
  | Instr.Bin { ty; op; a; b } when Types.is_int ty -> (
      match (op, a, b) with
      | Op.Add, x, Instr.Imm_int 0
      | Op.Add, Instr.Imm_int 0, x
      | Op.Sub, x, Instr.Imm_int 0
      | Op.Mul, x, Instr.Imm_int 1
      | Op.Mul, Instr.Imm_int 1, x
      | Op.Div, x, Instr.Imm_int 1
      | Op.Or, x, Instr.Imm_int 0
      | Op.Or, Instr.Imm_int 0, x
      | Op.Xor, x, Instr.Imm_int 0
      | Op.Xor, Instr.Imm_int 0, x
      | Op.Shl, x, Instr.Imm_int 0
      | Op.Shr, x, Instr.Imm_int 0 ->
          Some x
      | Op.Mul, _, Instr.Imm_int 0
      | Op.Mul, Instr.Imm_int 0, _
      | Op.And, _, Instr.Imm_int 0
      | Op.And, Instr.Imm_int 0, _ ->
          Some (Instr.Imm_int 0)
      | Op.Rem, _, Instr.Imm_int 1 -> Some (Instr.Imm_int 0)
      | _ -> None)
  | Instr.Cast { src_ty; dst_ty; a } when Types.equal_scalar src_ty dst_ty ->
      Some a
  | _ -> None

let fold_run (k : Kernel.t) =
  let df = Dataflow.analyze k in
  let n = Array.length df.Dataflow.body in
  let imm_of = function
    | Dataflow.Cint i -> Instr.Imm_int i
    | Dataflow.Cfloat f -> Instr.Imm_float f
  in
  let const_subst = function
    | Instr.Reg r when r >= 0 && r < n -> (
        match df.Dataflow.consts.(r) with
        | Some c -> imm_of c
        | None -> Instr.Reg r)
    | op -> op
  in
  let arr =
    Array.of_list (List.map (Instr.map_operands const_subst) k.Kernel.body)
  in
  let alias = Array.make n None in
  let resolve = function
    | Instr.Reg r when r >= 0 && r < n -> (
        match alias.(r) with Some o -> o | None -> Instr.Reg r)
    | op -> op
  in
  Array.iteri
    (fun pos instr ->
      let instr = Instr.map_operands resolve instr in
      arr.(pos) <- instr;
      match identity instr with
      | Some x -> alias.(pos) <- Some x  (* already resolved *)
      | None -> ())
    arr;
  let k' =
    {
      k with
      Kernel.body = Array.to_list arr;
      reductions =
        List.map
          (fun (r : Kernel.reduction) ->
            { r with red_src = resolve (const_subst r.red_src) })
          k.reductions;
    }
  in
  dce_run k'

(* --- GVN / CSE -------------------------------------------------------------- *)

let gvn_run (k : Kernel.t) =
  let av = Avail.analyze k in
  rebuild k
    ~keep:(fun _ -> true)
    ~replace:(fun pos ->
      let l = Avail.leader_of av pos in
      if l <> pos then Some l else None)

(* --- loop-invariant code motion -------------------------------------------- *)

(* Stable partition: invariant instructions first (the preheader prefix),
   everything else after, each side in original order.  Invariant
   instructions only read invariant operands — all of which move with them —
   and invariant loads read arrays no body store writes, so crossing stores
   is safe; stores themselves are never invariant and never move relative
   to each other or to same-array loads. *)
let licm_run (k : Kernel.t) =
  let df = Dataflow.analyze k in
  let n = Array.length df.Dataflow.body in
  let inv = ref [] and rest = ref [] in
  for pos = n - 1 downto 0 do
    if df.Dataflow.invariant.(pos) then inv := pos :: !inv
    else rest := pos :: !rest
  done;
  if !inv = [] then k else permute k (!inv @ !rest)

(* Number of body instructions in the hoistable (invariant, non-store)
   class; after [licm_run] these sit in a prefix of the body. *)
let hoisted_count (k : Kernel.t) =
  let df = Dataflow.analyze k in
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
    df.Dataflow.invariant

let hoisted_fraction (k : Kernel.t) =
  let len = List.length k.Kernel.body in
  if len = 0 then 0.0 else float_of_int (hoisted_count k) /. float_of_int len

(* --- strength reduction ---------------------------------------------------- *)

let is_pow2 c = c > 1 && c land (c - 1) = 0

let log2 c =
  let rec go c acc = if c <= 1 then acc else go (c lsr 1) (acc + 1) in
  go c 0

(* x*2^k == x lsl k holds for every native int (both wrap the 63-bit
   representation identically), so the
   multiply rewrite is unconditional.  Truncating division and remainder
   only agree with shift/mask on non-negative operands ([asr] rounds toward
   -inf, [/] toward 0), so those need a proof: the abstract value range of
   a register, the loop bounds of an index, or the sign of an immediate. *)
let strength_run (k : Kernel.t) =
  let summary = lazy (Absint.analyze ~n:Absint.default_n k) in
  let nonneg = function
    | Instr.Imm_int i -> i >= 0
    | Instr.Reg r ->
        let s = Lazy.force summary in
        r >= 0
        && r < Array.length s.Absint.s_regs
        && s.Absint.s_regs.(r).Interval.lo >= 0.0
    | Instr.Index v -> (
        match
          List.find_opt (fun (l : Kernel.loop) -> String.equal l.var v)
            k.Kernel.loops
        with
        | Some l -> l.start >= 0 && l.step > 0
        | None -> false)
    | Instr.Param _ | Instr.Imm_float _ -> false
  in
  let rw (instr : Instr.t) =
    match instr with
    | Instr.Bin { ty; op = Op.Mul; a; b } when Types.is_int ty -> (
        match (a, b) with
        | x, Instr.Imm_int c when is_pow2 c ->
            Instr.Bin { ty; op = Op.Shl; a = x; b = Instr.Imm_int (log2 c) }
        | Instr.Imm_int c, x when is_pow2 c ->
            Instr.Bin { ty; op = Op.Shl; a = x; b = Instr.Imm_int (log2 c) }
        | _ -> instr)
    | Instr.Bin { ty; op = Op.Div; a; b = Instr.Imm_int c }
      when Types.is_int ty && is_pow2 c && nonneg a ->
        Instr.Bin { ty; op = Op.Shr; a; b = Instr.Imm_int (log2 c) }
    | Instr.Bin { ty; op = Op.Rem; a; b = Instr.Imm_int c }
      when Types.is_int ty && is_pow2 c && nonneg a ->
        Instr.Bin { ty; op = Op.And; a; b = Instr.Imm_int (c - 1) }
    | _ -> instr
  in
  { k with Kernel.body = List.map rw k.Kernel.body }

(* --- dead-store elimination ------------------------------------------------ *)

(* A store is dead when a later store writes the syntactically identical
   address and no load of that array can observe the value in between.
   Same-array stores to *different* addresses neither kill nor observe, so
   the scan continues past them. *)
let dead_stores (k : Kernel.t) =
  let body = Array.of_list k.Kernel.body in
  let n = Array.length body in
  let out = ref [] in
  for p = n - 1 downto 0 do
    match body.(p) with
    | Instr.Store { addr; _ } ->
        let arr = Instr.addr_array addr in
        let rec scan q =
          if q >= n then ()
          else
            match body.(q) with
            | Instr.Load { addr = a2; _ }
              when String.equal (Instr.addr_array a2) arr ->
                ()
            | Instr.Store { addr = a2; _ }
              when String.equal (Instr.addr_array a2) arr ->
                if Instr.equal_addr addr a2 then out := p :: !out
                else scan (q + 1)
            | _ -> scan (q + 1)
        in
        scan (p + 1)
    | _ -> ()
  done;
  !out

let dse_run (k : Kernel.t) =
  match dead_stores k with
  | [] -> k
  | dead ->
      let dead_tbl = Hashtbl.create 4 in
      List.iter (fun p -> Hashtbl.replace dead_tbl p ()) dead;
      rebuild k
        ~keep:(fun pos -> not (Hashtbl.mem dead_tbl pos))
        ~replace:(fun _ -> None)

(* --- the pipeline ----------------------------------------------------------- *)

let fold_pass = { p_name = "constant-fold"; p_run = fold_run }

let gvn_pass = { p_name = "gvn"; p_run = gvn_run }

let licm_pass = { p_name = "licm"; p_run = licm_run }

let strength_pass = { p_name = "strength-reduce"; p_run = strength_run }

let dse_pass = { p_name = "dse"; p_run = dse_run }

let dce_pass = { p_name = "dce"; p_run = dce_run }

let pipeline =
  [ fold_pass; gvn_pass; licm_pass; strength_pass; dse_pass; dce_pass ]

(* --- instruction-class mix -------------------------------------------------- *)

(* Same class vocabulary as the feature extractor (which lives above this
   library and cannot be used here): memory ops split by access pattern,
   ALU ops by type and unit. *)
let class_names =
  [ "int_alu"; "int_mul"; "int_div"; "fp_add"; "fp_mul"; "fp_fma"; "fp_div";
    "fp_sqrt"; "cmp"; "select"; "cast"; "load_unit"; "load_inv";
    "load_strided"; "load_gather"; "store_unit"; "store_strided";
    "store_scatter"; "reduction" ]

let class_of (k : Kernel.t) (i : Instr.t) =
  match i with
  | Instr.Load { addr; _ } -> (
      match Kernel.access_stride k addr with
      | Kernel.Sconst 0 -> "load_inv"
      | Kernel.Sconst c when abs c = 1 -> "load_unit"
      | Kernel.Sconst _ | Kernel.Srow _ -> "load_strided"
      | Kernel.Sindirect -> "load_gather")
  | Instr.Store { addr; _ } -> (
      match Kernel.access_stride k addr with
      | Kernel.Sconst c when abs c <= 1 -> "store_unit"
      | Kernel.Sconst _ | Kernel.Srow _ -> "store_strided"
      | Kernel.Sindirect -> "store_scatter")
  | Instr.Bin { ty; op; _ } -> (
      let fp = Types.is_float ty in
      match op with
      | Op.Add | Op.Sub | Op.Min | Op.Max -> if fp then "fp_add" else "int_alu"
      | Op.Mul -> if fp then "fp_mul" else "int_mul"
      | Op.Div | Op.Rem -> if fp then "fp_div" else "int_div"
      | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr -> "int_alu")
  | Instr.Una { ty; op; _ } -> (
      match op with
      | Op.Neg | Op.Abs -> if Types.is_float ty then "fp_add" else "int_alu"
      | Op.Sqrt -> "fp_sqrt"
      | Op.Not -> "int_alu")
  | Instr.Fma _ -> "fp_fma"
  | Instr.Cmp _ -> "cmp"
  | Instr.Select _ -> "select"
  | Instr.Cast _ -> "cast"

(* Class -> count, every class present (zeros included) in [class_names]
   order, so renderings are stable. *)
let class_mix (k : Kernel.t) =
  let tbl = Hashtbl.create 16 in
  let bump c = Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)) in
  List.iter (fun i -> bump (class_of k i)) k.Kernel.body;
  List.iter (fun (_ : Kernel.reduction) -> bump "reduction") k.Kernel.reductions;
  List.map
    (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    class_names

(* --- driver ------------------------------------------------------------------ *)

type step = { st_pass : string; st_before : int; st_after : int }

type report = {
  rp_name : string;
  rp_original : Kernel.t;
  rp_normalized : Kernel.t;
  rp_steps : step list;
  rp_hoisted : int;
}

let run (k : Kernel.t) =
  let steps = ref [] in
  let final =
    List.fold_left
      (fun cur p ->
        let next = p.p_run cur in
        steps :=
          { st_pass = p.p_name;
            st_before = List.length cur.Kernel.body;
            st_after = List.length next.Kernel.body }
          :: !steps;
        next)
      k pipeline
  in
  { rp_name = k.Kernel.name;
    rp_original = k;
    rp_normalized = final;
    rp_steps = List.rev !steps;
    rp_hoisted = hoisted_count final }

let normalize (k : Kernel.t) = (run k).rp_normalized

(* --- per-pass validation ----------------------------------------------------- *)

(* Each pass is checked in sequence against the kernel it actually received
   (so a bug in pass 3 is attributed to pass 3, not smeared over the
   pipeline), plus the monotonicity guarantee that no pass grows the
   body. *)
let validate (k : Kernel.t) =
  let diags = ref [] in
  let _final =
    List.fold_left
      (fun cur p ->
        let next = p.p_run cur in
        let pass = "opt-" ^ p.p_name in
        diags := Equiv.semantic_diags ~pass ~orig:cur next @ !diags;
        let b = List.length cur.Kernel.body
        and a = List.length next.Kernel.body in
        if a > b then
          diags :=
            Diag.error ~pass ~kernel:k.Kernel.name
              "pass grew the body from %d to %d instructions" b a
            :: !diags;
        next)
      k pipeline
  in
  Diag.canonical !diags

(* --- rendering ---------------------------------------------------------------- *)

let mix_to_string mix =
  String.concat " "
    (List.filter_map
       (fun (c, n) -> if n = 0 then None else Some (Printf.sprintf "%s=%d" c n))
       mix)

let print_report oc r =
  Printf.fprintf oc "%s: %d -> %d instruction(s), %d hoistable\n" r.rp_name
    (List.length r.rp_original.Kernel.body)
    (List.length r.rp_normalized.Kernel.body)
    r.rp_hoisted;
  List.iter
    (fun s ->
      Printf.fprintf oc "  %-16s %3d -> %3d%s\n" s.st_pass s.st_before
        s.st_after
        (if s.st_after < s.st_before then
           Printf.sprintf "  (-%d)" (s.st_before - s.st_after)
         else ""))
    r.rp_steps;
  Printf.fprintf oc "  before: %s\n" (mix_to_string (class_mix r.rp_original));
  Printf.fprintf oc "  after:  %s\n" (mix_to_string (class_mix r.rp_normalized))

let mix_to_json mix =
  Vjson.Obj (List.map (fun (c, n) -> (c, Vjson.Num (float_of_int n))) mix)

let report_to_json r =
  let step s =
    Vjson.(
      Obj
        [ ("pass", Str s.st_pass); ("before", Num (float_of_int s.st_before));
          ("after", Num (float_of_int s.st_after)) ])
  in
  Vjson.(
    Obj
      [ ("kernel", Str r.rp_name);
        ("before", Num (float_of_int (List.length r.rp_original.Kernel.body)));
        ("after", Num (float_of_int (List.length r.rp_normalized.Kernel.body)));
        ("hoisted", Num (float_of_int r.rp_hoisted));
        ("steps", List (List.map step r.rp_steps));
        ("mix_before", mix_to_json (class_mix r.rp_original));
        ("mix_after", mix_to_json (class_mix r.rp_normalized)) ])

(* Kernels are independent; the registry sweep fans out over the shared
   domain pool (order-preserving, so renderings stay byte-stable whatever
   the worker count). *)
let run_all ks = Vpar.Pool.parallel_map run ks
let validate_all ks = Vpar.Pool.parallel_map validate ks
