(* Typed instructions for kernel bodies.

   [lower] compiles a [Vir.Kernel.t] body into an array of typed
   instructions over unboxed register files, with every operand resolved to
   a slot at lowering time:

     - virtual registers are split by static result kind into a float file
       and an int file (comparison masks live in the int file as 0/1);
     - immediates and scalar parameters get dedicated preloaded slots, so
       they cost nothing per iteration;
     - loop variables get "mirror" slots (int and/or float) that the nest
       driver refreshes when the variable steps, replacing the
       [List.assoc] binding walk the tree interpreter pays per operand;
     - every memory access is lowered to an access descriptor whose affine
       index function [const + sum coeff_j * iv(depth_j)] is precomputed
       at bind time — [eval_dim]/[flat_index] work hoisted out of the
       iteration entirely;
     - operand conversions ([float_of_int], [int_of_float]) become
       explicit instructions, cached per (register, kind), so the dynamic
       [value] boxing of the interpreter disappears;
     - every load and store uses the register file of its array's storage:
       an access typed otherwise becomes the same-kind access plus an
       explicit conversion, after a load and before a store, where
       [Env.read_*]/[write_*] convert.

   The semantics is exactly [Vinterp.Interp]: same operator definitions,
   same trapping behaviour (a [Trap] instruction, a trapping select, or an
   operator outside its register file's vocabulary, each at the position
   where the interpreter would raise), same out-of-bounds exception.  The equivalence suite in test/test_exec.ml holds the
   closure tier compiled from it to bit-identical results. *)

open Vir

(* --- program representation ---------------------------------------------- *)

type insn =
  | Fbin of { op : Op.binop; d : int; a : int; b : int }
  | Ibin of { op : Op.binop; d : int; a : int; b : int }
  | Funary of { op : Op.unop; d : int; a : int }
  | Iunary of { op : Op.unop; d : int; a : int }
  | Fma of { d : int; a : int; b : int; c : int }
  | Fcmp of { op : Op.cmpop; d : int; a : int; b : int }
  | Fsel of { d : int; a : int; b : int; c : int }
  | Isel of { d : int; a : int; b : int; c : int }
  | Fsel_trap of { d : int; a : int; trap : int; c : int; traps_if : bool }
  | Isel_trap of { d : int; a : int; trap : int; c : int; traps_if : bool }
  | F_of_i of { d : int; a : int }
  | I_of_f of { d : int; a : int }
  | Fload of { d : int; acc : int }
  | Iload of { d : int; acc : int }
  | Fstore of { acc : int; src : int }
  | Istore of { acc : int; src : int }
  | Trap of int

type fsrc = F_lit of float | F_param of string
type isrc = I_lit of int | I_param of string

(* One term of an affine index function.  The element coefficient of the
   loop variable at [t_depth] is [t_c0 * n2 + t_c1] (row-major 2-d
   flattening folds the row coefficient in at bind time; 1-d accesses keep
   [t_c0] = 0). *)
type aterm = { t_depth : int; t_c0 : int; t_c1 : int }

type access = {
  acc_arr : int;  (* array slot *)
  acc_name : string;  (* for Out_of_bounds reporting *)
  acc_ind : int;  (* int register holding an indirect index; -1 = affine *)
  acc_ndims : int;
  acc_rel : bool * bool;  (* rel_n per dim (snd unused for 1-d) *)
  acc_off : int * int;
  acc_pt : (string * int) list * (string * int) list;
  acc_terms : aterm array;
}

type loopdesc = {
  l_var : string;
  l_trip : Kernel.trip;
  l_start : int;
  l_step : int;
  l_islot : int;  (* int mirror slot, -1 if the body never reads it as int *)
  l_fslot : int;  (* float mirror slot, -1 if never read as float *)
}

type red = { rd_name : string; rd_op : Op.redop; rd_init : float; rd_slot : int }

type t = {
  kernel : Kernel.t;
  code : insn array;
  nf : int;  (* float register file size *)
  ni : int;  (* int register file size *)
  f_init : (int * fsrc) array;  (* preloaded slots, filled at bind *)
  i_init : (int * isrc) array;
  arr_names : string array;
  arr_float : bool array;  (* storage kind per array slot *)
  loops : loopdesc array;  (* outermost first *)
  accesses : access array;
  reds : red array;
  traps : string array;
}

(* --- lowering -------------------------------------------------------------- *)

(* Static kind of a value: float register, int register, or comparison
   mask (an int register holding 0/1 whose use as a number must trap
   exactly like the interpreter's [V_bool]). *)
type repr = RF of int | RI of int | RB of int | RNone

type builder = {
  mutable nf : int;
  mutable ni : int;
  mutable code_rev : insn list;
  mutable f_inits : (int * fsrc) list;
  mutable i_inits : (int * isrc) list;
  mutable accs_rev : access list;
  mutable n_accs : int;
  mutable traps_rev : string list;
  mutable n_traps : int;
  conv_cache : (int * bool, int) Hashtbl.t;  (* (pos, want_float) -> slot *)
  flit_cache : (int64, int) Hashtbl.t;
  ilit_cache : (int, int) Hashtbl.t;
  fparam_cache : (string, int) Hashtbl.t;
  iparam_cache : (string, int) Hashtbl.t;
  iv_islot : int array;  (* per loop depth; -1 = unallocated *)
  iv_fslot : int array;
}

let fresh_f b =
  let s = b.nf in
  b.nf <- s + 1;
  s

let fresh_i b =
  let s = b.ni in
  b.ni <- s + 1;
  s

let emit b insn = b.code_rev <- insn :: b.code_rev

let trap_id b msg =
  b.traps_rev <- msg :: b.traps_rev;
  let id = b.n_traps in
  b.n_traps <- id + 1;
  id

let emit_trap b msg = emit b (Trap (trap_id b msg))

(* Convert slot [a] into a fresh slot of the other register file. *)
let f_of_i b a =
  let d = fresh_f b in
  emit b (F_of_i { d; a });
  d

let i_of_f b a =
  let d = fresh_i b in
  emit b (I_of_f { d; a });
  d

let flit b v =
  let bits = Int64.bits_of_float v in
  match Hashtbl.find_opt b.flit_cache bits with
  | Some s -> s
  | None ->
      let s = fresh_f b in
      b.f_inits <- (s, F_lit v) :: b.f_inits;
      Hashtbl.add b.flit_cache bits s;
      s

let ilit b v =
  match Hashtbl.find_opt b.ilit_cache v with
  | Some s -> s
  | None ->
      let s = fresh_i b in
      b.i_inits <- (s, I_lit v) :: b.i_inits;
      Hashtbl.add b.ilit_cache v s;
      s

let fparam b p =
  match Hashtbl.find_opt b.fparam_cache p with
  | Some s -> s
  | None ->
      let s = fresh_f b in
      b.f_inits <- (s, F_param p) :: b.f_inits;
      Hashtbl.add b.fparam_cache p s;
      s

let iparam b p =
  match Hashtbl.find_opt b.iparam_cache p with
  | Some s -> s
  | None ->
      let s = fresh_i b in
      b.i_inits <- (s, I_param p) :: b.i_inits;
      Hashtbl.add b.iparam_cache p s;
      s

(* Mirror slots for loop variables, allocated on first use. *)
let iv_i b depth =
  if b.iv_islot.(depth) < 0 then b.iv_islot.(depth) <- fresh_i b;
  b.iv_islot.(depth)

let iv_f b depth =
  if b.iv_fslot.(depth) < 0 then b.iv_fslot.(depth) <- fresh_f b;
  b.iv_fslot.(depth)

(* Result of lowering an operand to a wanted kind: a ready slot, or the
   trap the interpreter would raise on evaluation. *)
type lowered = Slot of int | Trap of string

let mask_as_number = "Interp: mask used as a number"
let number_as_mask = "Interp: number used as a mask"

(* Operand in float context ([to_float (eval_operand ...)]). *)
let lower_f b ~depth_of ~pos_repr (op : Instr.operand) =
  match op with
  | Instr.Reg r -> (
      match pos_repr.(r) with
      | RF s -> Slot s
      | RB _ -> Trap mask_as_number
      | RI s -> (
          match Hashtbl.find_opt b.conv_cache (r, true) with
          | Some s' -> Slot s'
          | None ->
              let d = f_of_i b s in
              Hashtbl.add b.conv_cache (r, true) d;
              Slot d)
      | RNone -> Slot (flit b 0.0) (* store positions hold V_int 0 *))
  | Instr.Index v -> (
      match depth_of v with
      | Some d -> Slot (iv_f b d)
      | None -> Trap (Printf.sprintf "Interp: unbound loop var %s" v))
  | Instr.Param p -> Slot (fparam b p)
  | Instr.Imm_int i -> Slot (flit b (float_of_int i))
  | Instr.Imm_float f -> Slot (flit b f)

(* Operand in int context ([to_int (eval_operand ...)]). *)
let lower_i b ~depth_of ~pos_repr (op : Instr.operand) =
  match op with
  | Instr.Reg r -> (
      match pos_repr.(r) with
      | RI s -> Slot s
      | RB _ -> Trap mask_as_number
      | RF s -> (
          match Hashtbl.find_opt b.conv_cache (r, false) with
          | Some s' -> Slot s'
          | None ->
              let d = i_of_f b s in
              Hashtbl.add b.conv_cache (r, false) d;
              Slot d)
      | RNone -> Slot (ilit b 0))
  | Instr.Index v -> (
      match depth_of v with
      | Some d -> Slot (iv_i b d)
      | None -> Trap (Printf.sprintf "Interp: unbound loop var %s" v))
  | Instr.Param p -> Slot (iparam b p)
  | Instr.Imm_int i -> Slot (ilit b i)
  | Instr.Imm_float f -> Slot (ilit b (int_of_float f))

(* Operand in mask context (a select condition). *)
let lower_b ~pos_repr (op : Instr.operand) =
  match op with
  | Instr.Reg r -> (
      match pos_repr.(r) with
      | RB s -> Slot s
      | RF _ | RI _ | RNone -> Trap number_as_mask)
  | Instr.Index _ | Instr.Param _ | Instr.Imm_int _ | Instr.Imm_float _ ->
      Trap number_as_mask

(* Force a lowered operand to a slot, emitting the trap in place when the
   interpreter would raise there (code after a trap never executes, so the
   dummy slot is never read). *)
let force b = function
  | Slot s -> s
  | Trap msg ->
      emit_trap b msg;
      0

(* Array slots are the kernel's declaration order: [arr_names], access
   descriptors, traced accesses and [Tracesim]'s layout all number arrays
   this way. *)
let array_decls (k : Kernel.t) = Array.of_list k.arrays

let array_slot k =
  let decls = array_decls k in
  fun name ->
    let rec go i =
      if i >= Array.length decls then
        invalid_arg (Printf.sprintf "Vexec.Program: undeclared array %s" name)
      else if String.equal decls.(i).Kernel.arr_name name then i
      else go (i + 1)
    in
    go 0

let lower (k : Kernel.t) =
  let nloops = List.length k.loops in
  let b =
    {
      nf = 0;
      ni = 0;
      code_rev = [];
      f_inits = [];
      i_inits = [];
      accs_rev = [];
      n_accs = 0;
      traps_rev = [];
      n_traps = 0;
      conv_cache = Hashtbl.create 16;
      flit_cache = Hashtbl.create 8;
      ilit_cache = Hashtbl.create 8;
      fparam_cache = Hashtbl.create 4;
      iparam_cache = Hashtbl.create 4;
      iv_islot = Array.make nloops (-1);
      iv_fslot = Array.make nloops (-1);
    }
  in
  let loop_vars = Array.of_list (List.map (fun (l : Kernel.loop) -> l.var) k.loops) in
  let depth_of v =
    let rec go i = if i >= nloops then None
      else if String.equal loop_vars.(i) v then Some i
      else go (i + 1)
    in
    go 0
  in
  (* Storage kind per array slot mirrors [Env.create]. *)
  let arr_decls = array_decls k in
  let arr_slot = array_slot k in
  let arr_float =
    Array.map
      (fun (d : Kernel.array_decl) ->
        match (d.arr_role, d.arr_ty) with
        | Kernel.Idx, _ -> false
        | Kernel.Data, (Types.F32 | Types.F64) -> true
        | Kernel.Data, (Types.I32 | Types.I64) -> false)
      arr_decls
  in
  let body = Array.of_list k.body in
  let pos_repr = Array.make (Array.length body) RNone in
  (* Lower one address to an access descriptor id, paired with whether its
     array is stored as floats. *)
  let lower_access (addr : Instr.addr) =
    let slot = arr_slot (Instr.addr_array addr) in
    let acc =
      match addr with
      | Instr.Affine { arr; dims } ->
          let d0, d1, ndims =
            match dims with
            | [ d ] -> (d, Instr.dim_const 0, 1)
            | [ d0; d1 ] -> (d0, d1, 2)
            | _ -> invalid_arg "Vexec.Program.lower: unsupported dimensionality"
          in
          (* Merge the per-dim loop-variable coefficients into per-depth
             terms: element coefficient = c0 * n2 + c1 after row-major
             flattening (1-d: c0 = 0). *)
          let terms = Hashtbl.create 4 in
          let add_term depth c0 c1 =
            let p0, p1 =
              match Hashtbl.find_opt terms depth with
              | Some (a, b) -> (a, b)
              | None -> (0, 0)
            in
            Hashtbl.replace terms depth (p0 + c0, p1 + c1)
          in
          List.iter
            (fun (v, c) ->
              match depth_of v with
              | Some d -> add_term d (if ndims = 2 then c else 0) (if ndims = 2 then 0 else c)
              | None ->
                  invalid_arg
                    (Printf.sprintf "Vexec.Program.lower: unbound loop var %s" v))
            d0.Instr.terms;
          if ndims = 2 then
            List.iter
              (fun (v, c) ->
                match depth_of v with
                | Some d -> add_term d 0 c
                | None ->
                    invalid_arg
                      (Printf.sprintf "Vexec.Program.lower: unbound loop var %s" v))
              d1.Instr.terms;
          let aterms =
            Hashtbl.fold (fun d (c0, c1) acc -> { t_depth = d; t_c0 = c0; t_c1 = c1 } :: acc)
              terms []
            |> List.filter (fun t -> t.t_c0 <> 0 || t.t_c1 <> 0)
            |> List.sort (fun a b -> compare a.t_depth b.t_depth)
          in
          {
            acc_arr = slot;
            acc_name = arr;
            acc_ind = -1;
            acc_ndims = ndims;
            acc_rel = (d0.Instr.rel_n, d1.Instr.rel_n);
            acc_off = (d0.Instr.off, d1.Instr.off);
            acc_pt = (d0.Instr.pterms, d1.Instr.pterms);
            acc_terms = Array.of_list aterms;
          }
      | Instr.Indirect { arr; idx } ->
          let ireg =
            match idx with
            | Instr.Imm_float _ ->
                emit_trap b "Interp: float indirect index";
                0
            | _ -> force b (lower_i b ~depth_of ~pos_repr idx)
          in
          {
            acc_arr = slot;
            acc_name = arr;
            acc_ind = ireg;
            acc_ndims = 1;
            acc_rel = (false, false);
            acc_off = (0, 0);
            acc_pt = ([], []);
            acc_terms = [||];
          }
    in
    b.accs_rev <- acc :: b.accs_rev;
    let id = b.n_accs in
    b.n_accs <- id + 1;
    (id, arr_float.(slot))
  in
  (* Lower a select once the arms' target kind is fixed.  The interpreter
     evaluates only the chosen arm, so a trapping arm must stay lazy. *)
  let lower_select ~float_kind cond if_true if_false =
    let lower_arm = if float_kind then lower_f b ~depth_of ~pos_repr else lower_i b ~depth_of ~pos_repr in
    let fresh = if float_kind then fresh_f else fresh_i in
    match lower_b ~pos_repr cond with
    | Trap msg ->
        emit_trap b msg;
        0
    | Slot c -> (
        let guarded ~traps_if a msg =
          let d = fresh b in
          let trap = trap_id b msg in
          emit b
            (if float_kind then Fsel_trap { d; a; trap; c; traps_if }
             else Isel_trap { d; a; trap; c; traps_if });
          d
        in
        match (lower_arm if_true, lower_arm if_false) with
        | Slot a, Slot bb ->
            let d = fresh b in
            emit b (if float_kind then Fsel { d; a; b = bb; c } else Isel { d; a; b = bb; c });
            d
        | Trap msg, Slot ok -> guarded ~traps_if:true ok msg
        | Slot ok, Trap msg -> guarded ~traps_if:false ok msg
        | Trap msg, Trap _ ->
            emit_trap b msg;
            0)
  in
  Array.iteri
    (fun pos instr ->
      let lf op = force b (lower_f b ~depth_of ~pos_repr op) in
      let li op = force b (lower_i b ~depth_of ~pos_repr op) in
      let repr =
        match instr with
        | Instr.Bin { ty; op; a; b = b2 } ->
            if Types.is_float ty then begin
              let sa = lf a in
              let sb = lf b2 in
              let d = fresh_f b in
              emit b (Fbin { op; d; a = sa; b = sb });
              RF d
            end
            else begin
              let sa = li a in
              let sb = li b2 in
              let d = fresh_i b in
              emit b (Ibin { op; d; a = sa; b = sb });
              RI d
            end
        | Instr.Una { ty; op; a } ->
            if Types.is_float ty then begin
              let sa = lf a in
              let d = fresh_f b in
              emit b (Funary { op; d; a = sa });
              RF d
            end
            else begin
              let sa = li a in
              let d = fresh_i b in
              emit b (Iunary { op; d; a = sa });
              RI d
            end
        | Instr.Fma { a; b = b2; c; _ } ->
            let sa = lf a in
            let sb = lf b2 in
            let sc = lf c in
            let d = fresh_f b in
            emit b (Fma { d; a = sa; b = sb; c = sc });
            RF d
        | Instr.Cmp { ty; op; a; b = b2 } ->
            (* Both kinds end in a float compare, but the interpreter routes
               int compares through [float_of_int (to_int v)] — a float
               operand gets truncated first, so the int path must lower in
               int context and convert back. *)
            let lower_cmp o =
              if Types.is_float ty then lower_f b ~depth_of ~pos_repr o
              else
                match lower_i b ~depth_of ~pos_repr o with
                | Trap _ as t -> t
                | Slot si -> Slot (f_of_i b si)
            in
            let sa = force b (lower_cmp a) in
            let sb = force b (lower_cmp b2) in
            let d = fresh_i b in
            emit b (Fcmp { op; d; a = sa; b = sb });
            RB d
        | Instr.Select { ty; cond; if_true; if_false } ->
            if Types.is_float ty then RF (lower_select ~float_kind:true cond if_true if_false)
            else RI (lower_select ~float_kind:false cond if_true if_false)
        | Instr.Load { ty; addr } -> (
            (* Read the array's own register file; a load typed otherwise
               converts the value read, as [Env.read_*] does. *)
            let acc, stored_float = lower_access addr in
            let d = (if stored_float then fresh_f else fresh_i) b in
            emit b (if stored_float then Fload { d; acc } else Iload { d; acc });
            match (Types.is_float ty, stored_float) with
            | true, true -> RF d
            | true, false -> RF (f_of_i b d)
            | false, false -> RI d
            | false, true -> RI (i_of_f b d))
        | Instr.Store { ty; addr; src } ->
            (* Evaluation order matches the interpreter: the address (an
               indirect index operand) resolves before the source value,
               which [Env.write_*] then converts to the array's kind. *)
            let acc, stored_float = lower_access addr in
            let src =
              match (Types.is_float ty, stored_float) with
              | true, true -> lf src
              | true, false -> i_of_f b (lf src)
              | false, false -> li src
              | false, true -> f_of_i b (li src)
            in
            emit b (if stored_float then Fstore { acc; src } else Istore { acc; src });
            RNone
        | Instr.Cast { dst_ty; a; _ } ->
            (* Pure conversion: alias the (converted) operand slot. *)
            if Types.is_float dst_ty then (
              match lower_f b ~depth_of ~pos_repr a with
              | Slot s -> RF s
              | Trap msg ->
                  emit_trap b msg;
                  RF 0)
            else (
              match lower_i b ~depth_of ~pos_repr a with
              | Slot s -> RI s
              | Trap msg ->
                  emit_trap b msg;
                  RI 0)
      in
      pos_repr.(pos) <- repr)
    body;
  (* Reduction sources are folded after the body, as floats. *)
  let reds =
    Array.of_list
      (List.map
         (fun (r : Kernel.reduction) ->
           let slot = force b (lower_f b ~depth_of ~pos_repr r.red_src) in
           { rd_name = r.red_name; rd_op = r.red_op; rd_init = r.red_init;
             rd_slot = slot })
         k.reductions)
  in
  let loops =
    Array.of_list
      (List.mapi
         (fun depth (l : Kernel.loop) ->
           { l_var = l.var; l_trip = l.trip; l_start = l.start; l_step = l.step;
             l_islot = b.iv_islot.(depth); l_fslot = b.iv_fslot.(depth) })
         k.loops)
  in
  {
    kernel = k;
    code = Array.of_list (List.rev b.code_rev);
    nf = max 1 b.nf;
    ni = max 1 b.ni;
    f_init = Array.of_list (List.rev b.f_inits);
    i_init = Array.of_list (List.rev b.i_inits);
    arr_names = Array.map (fun (d : Kernel.array_decl) -> d.arr_name) arr_decls;
    arr_float;
    loops;
    accesses = Array.of_list (List.rev b.accs_rev);
    reds;
    traps = Array.of_list (List.rev b.traps_rev);
  }
