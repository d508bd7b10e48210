(* Abstract interpretation of a scalar kernel body.

   Three composable domains over one engine:

   - intervals ([Interval]) for every register, loop variable, array cell
     and affine subscript, run to a fixpoint over loop iterations with
     widening after a few joining rounds;
   - linear congruences ([Congr]) for every memory subscript, evaluated at
     the vector-block start points, which decide the aligned / unaligned /
     gather classification per vector factor;
   - trip counts, which for this IR are closed-form: either provably
     constant for every problem size ([Tconst]) or a known function of n.

   The concrete semantics abstracted here is [Vinterp.Interp] running in the
   default [Vinterp.Env]: data floats in [0.5, 1.5), data ints in [1, 4],
   index arrays permutations of [0, n), parameter i bound to 1 + 0.5(i+1).
   The qcheck suite checks containment of every concrete register value and
   effective address on random synthesized kernels.

   Congruence facts deliberately ignore the default parameter values:
   a parameter-shifted subscript gets a top congruence, so "aligned" claims
   never depend on what a runtime parameter happens to be. *)

open Vir

(* --- trip counts -------------------------------------------------------- *)

type trip_count =
  | Tc_const of int  (* the same for every problem size: a [Tconst] trip *)
  | Tc_linear of int  (* n-dependent; the value at the analysis size *)

let trip_count ~n (l : Kernel.loop) =
  match l.trip with
  | Kernel.Tconst _ -> Tc_const (Kernel.iterations ~n l)
  | Kernel.Tn | Kernel.Tn_div _ | Kernel.Tn_minus _ | Kernel.Tn2
  | Kernel.Tn2_minus _ ->
      Tc_linear (Kernel.iterations ~n l)

let trip_count_to_string = function
  | Tc_const c -> Printf.sprintf "const(%d)" c
  | Tc_linear c -> Printf.sprintf "linear(%d@n)" c

(* --- access classification --------------------------------------------- *)

type access_class =
  | Invariant  (* address fixed across the innermost loop *)
  | Aligned  (* unit stride, provably vf-aligned at every block start *)
  | Unaligned  (* unit stride, alignment unprovable or refuted *)
  | Strided of int
  | Row
  | Gather

let access_class_to_string = function
  | Invariant -> "invariant"
  | Aligned -> "aligned"
  | Unaligned -> "unaligned"
  | Strided s -> Printf.sprintf "strided(%d)" s
  | Row -> "row"
  | Gather -> "gather"

(* Congruence of one subscript dimension at the vector-block start points:
   the innermost variable advances vf*step per block, outer variables take
   every value of their ranges, parameters are unknown integers. *)
let dim_congr ?vf ~n (k : Kernel.t) ~ndims (d : Instr.dim) =
  let inner = Kernel.innermost k in
  let bound2 = if ndims >= 2 then Kernel.isqrt n else n in
  let base = if d.rel_n then bound2 - 1 else 0 in
  let var_congr (l : Kernel.loop) =
    if String.equal l.var inner.var then
      match vf with
      | Some v -> Congr.make (v * l.step) l.start
      | None -> Congr.make l.step l.start
    else Congr.make l.step l.start
  in
  let term acc (v, c) =
    match List.find_opt (fun (l : Kernel.loop) -> String.equal l.var v) k.loops with
    | Some l -> Congr.add acc (Congr.mul_const c (var_congr l))
    | None -> Congr.top
  in
  let acc = List.fold_left term (Congr.const (base + d.off)) d.terms in
  List.fold_left
    (fun acc (_, c) -> if c = 0 then acc else Congr.add acc Congr.top)
    acc d.pterms

(* Flat-index congruence at block starts (row-major for 2-d accesses). *)
let flat_congr ?vf ~n k (dims : Instr.dim list) =
  match dims with
  | [ d ] -> dim_congr ?vf ~n k ~ndims:1 d
  | [ d0; d1 ] ->
      let n2 = Kernel.isqrt n in
      Congr.add
        (Congr.mul_const n2 (dim_congr ?vf ~n k ~ndims:2 d0))
        (dim_congr ?vf ~n k ~ndims:2 d1)
  | _ -> Congr.top

(* Classification of one access.  Without a [vf] no alignment can be
   claimed, so unit strides classify as [Unaligned]. *)
let classify_access ?vf ~n (k : Kernel.t) (addr : Instr.addr) =
  match Kernel.access_stride k addr with
  | Kernel.Sindirect -> Gather
  | Kernel.Srow _ -> Row
  | Kernel.Sconst 0 -> Invariant
  | Kernel.Sconst s when abs s = 1 -> (
      match (vf, addr) with
      | Some v, Instr.Affine { dims; _ } when v > 1 -> (
          match Congr.residue_mod (flat_congr ~vf:v ~n k dims) ~k:v with
          | Some r when s = 1 && r = 0 -> Aligned
          | Some r when s = -1 && r = (v - 1) mod v -> Aligned
          | Some _ | None -> Unaligned)
      | _ -> Unaligned)
  | Kernel.Sconst s -> Strided s

(* --- the interval engine ------------------------------------------------ *)

type access_info = {
  ai_pos : int;
  ai_arr : string;
  ai_store : bool;
  ai_class : access_class;
  ai_congr : Congr.t;
  ai_range : Interval.t;  (* flat-index range over all iterations *)
}

type summary = {
  s_kernel : Kernel.t;
  s_n : int;
  s_vf : int option;
  s_regs : Interval.t array;  (* one per body position; stores get [0] *)
  s_accesses : access_info list;
  s_trips : (string * trip_count) list;
  s_widened : int list;  (* store positions whose array needed widening *)
  s_zero_trip : bool;
  s_rounds : int;
}

(* Problem size the lint passes analyze at; any valid size works, a mid-size
   one keeps 2-d extents representative. *)
let default_n = 1024

(* Default parameter binding of [Vinterp.Env]: position i |-> 1 + 0.5(i+1). *)
let param_value (k : Kernel.t) p =
  let rec pos i = function
    | [] -> None
    | q :: _ when String.equal q p -> Some i
    | _ :: tl -> pos (i + 1) tl
  in
  match pos 0 k.params with
  | Some i -> Some (1.0 +. (0.5 *. float_of_int (i + 1)))
  | None -> None

let analyze ?vf ~n (k : Kernel.t) =
  let body = Array.of_list k.body in
  let nbody = Array.length body in
  let n2 = Kernel.isqrt n in
  (* Loop-variable ranges over the executed iterations: the exact
     iteration-set math is [Vir.Ibox.loop_values], shared with the
     bind-time guard-elimination proof so the two cannot drift. *)
  let zero_trip = ref false in
  let var_iv =
    List.map
      (fun (l : Kernel.loop) ->
        match
          Ibox.loop_values ~start:l.start ~step:l.step
            ~bound:(Kernel.trip_bound ~n l.trip)
        with
        | `Empty ->
            zero_trip := true;
            (l.var, Interval.of_int l.start)
        | `Unknown -> (l.var, Interval.top)
        | `Range r -> (l.var, Interval.of_ints r.Ibox.lo r.Ibox.hi))
      k.loops
  in
  (* Array contents, abstracted one interval per array over the values the
     backing store holds ([Vinterp.Env] contracts for the initial state). *)
  let backing_int = Hashtbl.create 8 in
  let cells = Hashtbl.create 8 in
  List.iter
    (fun (d : Kernel.array_decl) ->
      let is_int =
        match (d.arr_role, d.arr_ty) with
        | Kernel.Idx, _ -> true
        | Kernel.Data, (Types.I32 | Types.I64) -> true
        | Kernel.Data, (Types.F32 | Types.F64) -> false
      in
      Hashtbl.replace backing_int d.arr_name is_int;
      let init =
        match d.arr_role with
        | Kernel.Idx -> Interval.of_ints 0 (n - 1)
        | Kernel.Data -> if is_int then Interval.of_ints 1 4 else Interval.make 0.5 1.5
      in
      Hashtbl.replace cells d.arr_name init)
    k.arrays;
  let cell arr =
    match Hashtbl.find_opt cells arr with Some iv -> iv | None -> Interval.top
  in
  let is_int_backed arr =
    match Hashtbl.find_opt backing_int arr with Some b -> b | None -> false
  in
  (* Static operand typing, for the to_int / to_float coercions.  A register
     defined by [Cmp] holds a mask; using it as a number raises in the
     interpreter, so top is a safe (vacuous) answer. *)
  let operand_kind = function
    | Instr.Reg r -> (
        match body.(r) with
        | Instr.Cmp _ -> `Bool
        | i -> (
            match Instr.result_ty i with
            | Some ty -> if Types.is_float ty then `Float else `Int
            | None -> `Int))
    | Instr.Index _ | Instr.Imm_int _ -> `Int
    | Instr.Param _ | Instr.Imm_float _ -> `Float
  in
  let regs = Array.make nbody Interval.top in
  let eval_operand op =
    match op with
    | Instr.Reg r -> regs.(r)
    | Instr.Index v -> (
        match List.assoc_opt v var_iv with
        | Some iv -> iv
        | None -> Interval.top)
    | Instr.Param p -> (
        match param_value k p with
        | Some v -> Interval.const v
        | None -> Interval.top)
    | Instr.Imm_int i -> Interval.of_int i
    | Instr.Imm_float f -> Interval.const f
  in
  let as_int op =
    let iv = eval_operand op in
    match operand_kind op with
    | `Float -> Interval.trunc iv
    | `Int -> iv
    | `Bool -> Interval.top
  in
  let as_float op =
    match operand_kind op with `Bool -> Interval.top | _ -> eval_operand op
  in
  let int_bin (op : Op.binop) a b =
    match op with
    | Op.Add -> Interval.add_int a b
    | Op.Sub -> Interval.sub_int a b
    | Op.Mul -> Interval.mul_int a b
    | Op.Div -> Interval.div_int a b
    | Op.Rem -> Interval.rem_int a b
    | Op.Min -> Interval.min_ a b
    | Op.Max -> Interval.max_ a b
    | Op.And -> Interval.land_int a b
    | Op.Or -> Interval.lor_int a b
    | Op.Xor -> Interval.lxor_int a b
    | Op.Shl -> Interval.shl_int a b
    | Op.Shr -> Interval.shr_int a b
  in
  let float_bin (op : Op.binop) a b =
    match op with
    | Op.Add -> Interval.add a b
    | Op.Sub -> Interval.sub a b
    | Op.Mul -> Interval.mul a b
    | Op.Div -> Interval.div a b
    | Op.Min -> Interval.min_ a b
    | Op.Max -> Interval.max_ a b
    | Op.Rem | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr -> Interval.top
  in
  (* Comparisons follow the interpreter: int operands go through
     [float_of_int . to_int] first. *)
  let cmp_iv ty (op : Op.cmpop) a b =
    let a, b = if Types.is_float ty then (as_float a, as_float b) else (as_int a, as_int b) in
    let t = Interval.const 1.0 and f = Interval.const 0.0 in
    let disjoint = a.Interval.hi < b.Interval.lo || b.Interval.hi < a.Interval.lo in
    match op with
    | Op.Lt -> if a.Interval.hi < b.Interval.lo then t else if a.Interval.lo >= b.Interval.hi then f else Interval.bool_range
    | Op.Le -> if a.Interval.hi <= b.Interval.lo then t else if a.Interval.lo > b.Interval.hi then f else Interval.bool_range
    | Op.Gt -> if a.Interval.lo > b.Interval.hi then t else if a.Interval.hi <= b.Interval.lo then f else Interval.bool_range
    | Op.Ge -> if a.Interval.lo >= b.Interval.hi then t else if a.Interval.hi < b.Interval.lo then f else Interval.bool_range
    | Op.Eq ->
        if Interval.is_const a && Interval.is_const b && a.Interval.lo = b.Interval.lo
        then t
        else if disjoint then f
        else Interval.bool_range
    | Op.Ne ->
        if disjoint then t
        else if
          Interval.is_const a && Interval.is_const b && a.Interval.lo = b.Interval.lo
        then f
        else Interval.bool_range
  in
  (* Flat-index interval of an affine access over all iterations. *)
  let dim_iv ~ndims (d : Instr.dim) =
    let bound2 = if ndims >= 2 then n2 else n in
    let base = if d.rel_n then bound2 - 1 else 0 in
    let acc = ref (Interval.of_int (base + d.off)) in
    List.iter
      (fun (v, c) ->
        let iv =
          match List.assoc_opt v var_iv with
          | Some iv -> iv
          | None -> Interval.top
        in
        acc := Interval.add_int !acc (Interval.mul_int (Interval.of_int c) iv))
      d.terms;
    List.iter
      (fun (p, c) ->
        let pv =
          match param_value k p with
          | Some v -> Interval.of_int (int_of_float v)
          | None -> Interval.top
        in
        acc := Interval.add_int !acc (Interval.mul_int (Interval.of_int c) pv))
      d.pterms;
    !acc
  in
  let flat_iv (dims : Instr.dim list) =
    match dims with
    | [ d ] -> dim_iv ~ndims:1 d
    | [ d0; d1 ] ->
        Interval.add_int
          (Interval.mul_int (Interval.of_int n2) (dim_iv ~ndims:2 d0))
          (dim_iv ~ndims:2 d1)
    | _ -> Interval.top
  in
  let addr_iv = function
    | Instr.Affine { dims; _ } -> flat_iv dims
    | Instr.Indirect { idx; _ } -> as_int idx
  in
  (* One abstract pass over the body.  Loads see the current array state;
     stores join into it (in place, monotone).  Returns whether any array
     interval changed.  [widen_now] switches joins to widening. *)
  let widened = Hashtbl.create 4 in
  let eval_pass ~widen_now =
    let changed = ref false in
    Array.iteri
      (fun pos instr ->
        let result =
          match instr with
          | Instr.Bin { ty; op; a; b } ->
              if Types.is_float ty then float_bin op (as_float a) (as_float b)
              else int_bin op (as_int a) (as_int b)
          | Instr.Una { ty; op; a } ->
              if Types.is_float ty then (
                match op with
                | Op.Neg -> Interval.neg (as_float a)
                | Op.Abs -> Interval.abs_ (as_float a)
                | Op.Sqrt -> Interval.sqrt_ (as_float a)
                | Op.Not -> Interval.top)
              else (
                match op with
                | Op.Neg -> Interval.neg (as_int a)
                | Op.Abs -> Interval.abs_ (as_int a)
                | Op.Not -> Interval.lnot_int (as_int a)
                | Op.Sqrt -> Interval.top)
          | Instr.Fma { a; b; c; _ } ->
              Interval.fma (as_float a) (as_float b) (as_float c)
          | Instr.Cmp { ty; op; a; b } -> cmp_iv ty op a b
          | Instr.Select { ty; cond; if_true; if_false } ->
              let coerce x = if Types.is_float ty then as_float x else as_int x in
              let c = eval_operand cond in
              if Interval.is_const c && c.Interval.lo = 1.0 then coerce if_true
              else if Interval.is_const c && c.Interval.lo = 0.0 then
                coerce if_false
              else Interval.join (coerce if_true) (coerce if_false)
          | Instr.Load { ty; addr } ->
              let arr = Instr.addr_array addr in
              let contents = cell arr in
              if Types.is_float ty then contents (* float_of_int embeds ints *)
              else if is_int_backed arr then contents
              else Interval.trunc contents
          | Instr.Store { ty; addr; src } ->
              let arr = Instr.addr_array addr in
              let sv = if Types.is_float ty then as_float src else as_int src in
              let bv =
                if is_int_backed arr && Types.is_float ty then Interval.trunc sv
                else sv
              in
              let old = cell arr in
              let next = Interval.join old bv in
              let next =
                if widen_now then Interval.widen ~prev:old ~next else next
              in
              if not (Interval.equal old next) then begin
                Hashtbl.replace cells arr next;
                changed := true;
                if widen_now then Hashtbl.replace widened pos ()
              end;
              Interval.const 0.0
          | Instr.Cast { dst_ty; a; _ } ->
              if Types.is_float dst_ty then as_float a else as_int a
        in
        regs.(pos) <- result)
      body;
    !changed
  in
  (* Fixpoint: a few joining rounds, then widening; the body is tiny and the
     widened lattice has no infinite ascending chains, so this terminates. *)
  let max_join_rounds = 3 in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    let changed = eval_pass ~widen_now:(!rounds > max_join_rounds) in
    if not changed then continue_ := false
  done;
  (* Access records, from the stable state. *)
  let accesses =
    List.concat
      (List.mapi
         (fun pos instr ->
           match instr with
           | Instr.Load { addr; _ } | Instr.Store { addr; _ } ->
               let congr =
                 match addr with
                 | Instr.Affine { dims; _ } -> flat_congr ?vf ~n k dims
                 | Instr.Indirect _ -> Congr.top
               in
               [ {
                   ai_pos = pos;
                   ai_arr = Instr.addr_array addr;
                   ai_store = Instr.is_store instr;
                   ai_class = classify_access ?vf ~n k addr;
                   ai_congr = congr;
                   ai_range = addr_iv addr;
                 } ]
           | _ -> [])
         k.body)
  in
  {
    s_kernel = k;
    s_n = n;
    s_vf = vf;
    s_regs = Array.copy regs;
    s_accesses = accesses;
    s_trips = List.map (fun (l : Kernel.loop) -> (l.var, trip_count ~n l)) k.loops;
    s_widened = List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) widened []);
    s_zero_trip = !zero_trip;
    s_rounds = !rounds;
  }

(* --- derived feature columns ------------------------------------------- *)

(* Fraction of the body's memory accesses provably aligned at [vf]. *)
let aligned_fraction ~n ~vf (k : Kernel.t) =
  let total = ref 0 and aligned = ref 0 in
  List.iter
    (fun instr ->
      match instr with
      | Instr.Load { addr; _ } | Instr.Store { addr; _ } ->
          incr total;
          if classify_access ~vf ~n k addr = Aligned then incr aligned
      | _ -> ())
    k.body;
  if !total = 0 then 0.0 else float_of_int !aligned /. float_of_int !total

(* 1.0 when the innermost trip count is provably the same for every problem
   size (a [Tconst] loop: no residual scalar epilogue uncertainty). *)
let const_trip_flag (k : Kernel.t) =
  match (Kernel.innermost k).trip with Kernel.Tconst _ -> 1.0 | _ -> 0.0

(* --- rendering ---------------------------------------------------------- *)

let instr_label (k : Kernel.t) pos =
  match List.nth_opt k.body pos with
  | Some i -> Format.asprintf "%t" (fun fmt -> Pp.instr fmt pos i)
  | None -> Printf.sprintf "r%d" pos

let print_summary (s : summary) =
  let k = s.s_kernel in
  Printf.printf "kernel %s: abstract interpretation at n = %d%s\n" k.name s.s_n
    (match s.s_vf with Some v -> Printf.sprintf ", vf = %d" v | None -> "");
  if s.s_zero_trip then
    Printf.printf "  (a loop has zero iterations at this n: facts are vacuous)\n";
  Printf.printf "  trip counts:\n";
  List.iter
    (fun (var, tc) ->
      Printf.printf "    %-8s %s\n" var (trip_count_to_string tc))
    s.s_trips;
  Printf.printf "  register ranges (%d fixpoint rounds):\n" s.s_rounds;
  Array.iteri
    (fun pos iv ->
      Printf.printf "    r%-3d %-20s  %s\n" pos (Interval.to_string iv)
        (instr_label k pos))
    s.s_regs;
  Printf.printf "  memory accesses:\n";
  List.iter
    (fun a ->
      Printf.printf "    @%-3d %-5s %-8s %-12s congr %-10s range %s\n" a.ai_pos
        (if a.ai_store then "store" else "load")
        a.ai_arr
        (access_class_to_string a.ai_class)
        (Congr.to_string a.ai_congr)
        (Interval.to_string a.ai_range))
    s.s_accesses;
  if s.s_widened <> [] then
    Printf.printf "  widened stores: %s\n"
      (String.concat ", " (List.map (Printf.sprintf "@%d") s.s_widened))

let summary_to_json (s : summary) =
  let register pos iv =
    Vjson.(
      Obj [ ("pos", Num (float_of_int pos)); ("range", Str (Interval.to_string iv)) ])
  in
  let access a =
    Vjson.(
      Obj
        [ ("pos", Num (float_of_int a.ai_pos)); ("array", Str a.ai_arr);
          ("kind", Str (if a.ai_store then "store" else "load"));
          ("class", Str (access_class_to_string a.ai_class));
          ("congruence", Str (Congr.to_string a.ai_congr));
          ("range", Str (Interval.to_string a.ai_range)) ])
  in
  Vjson.(
    Obj
      [ ("kernel", Str s.s_kernel.name); ("n", Num (float_of_int s.s_n));
        ("vf", match s.s_vf with Some v -> Num (float_of_int v) | None -> Null);
        ("zero_trip", Bool s.s_zero_trip); ("rounds", Num (float_of_int s.s_rounds));
        ( "trips",
          Obj (List.map (fun (v, tc) -> (v, Str (trip_count_to_string tc))) s.s_trips) );
        ("registers", List (List.mapi register (Array.to_list s.s_regs)));
        ("accesses", List (List.map access s.s_accesses));
        ("widened", List (List.map (fun p -> Num (float_of_int p)) s.s_widened)) ])
