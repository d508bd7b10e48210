(* Closure tier: compile a lowered program into nested OCaml closures.

   Each typed [Program.insn] becomes a [unit -> unit] closure over the
   [Flat.state] register files, specialized on its operator and register
   files, with register slots, array slots and trap messages baked in as
   captured immediates; the body is a flat sequence of those closures
   wrapped in per-loop driver closures.  All bind-dependent quantities (loop
   bounds, array storage, access constants and coefficients) are read
   *through* the state's stable arrays at run time, so a program is compiled
   exactly once and the same compiled nest serves every subsequent
   [Flat.bind].

   Semantics is identical to [Vinterp.Interp]; the equivalence suite runs
   both on the same kernels and compares snapshots, reductions and traps. *)

open Vir
module Env = Vinterp.Env

(* Two compilations of the same nest: [checked] computes every index
   through its index closure and guards it, [unchecked] elides the guard on
   affine accesses.  [run_bound] selects [unchecked] only when
   [affine_safe] proves, from the bound loop ranges and access
   coefficients, that every affine index stays inside its array for the
   whole iteration space; indirect (gather/scatter) accesses keep their
   guards in both variants.  A traced compilation is the guarded nest with
   the hook in its index closures, in both fields. *)
type t = { checked : unit -> unit; unchecked : unit -> unit }

let nop () = ()

(* Sequence an instruction array: small bodies are unrolled into a single
   closure, larger ones dispatch through a flat loop — one indirect call per
   instruction per iteration, versus ~2x for a composed chain. *)
let seq fs =
  match Array.length fs with
  | 0 -> nop
  | 1 -> fs.(0)
  | 2 ->
      let a = fs.(0) and b = fs.(1) in
      fun () ->
        a ();
        b ()
  | 3 ->
      let a = fs.(0) and b = fs.(1) and c = fs.(2) in
      fun () ->
        a ();
        b ();
        c ()
  | 4 ->
      let a = fs.(0) and b = fs.(1) and c = fs.(2) and d = fs.(3) in
      fun () ->
        a ();
        b ();
        c ();
        d ()
  | 5 ->
      let a = fs.(0)
      and b = fs.(1)
      and c = fs.(2)
      and d = fs.(3)
      and e = fs.(4) in
      fun () ->
        a ();
        b ();
        c ();
        d ();
        e ()
  | 6 ->
      let a = fs.(0)
      and b = fs.(1)
      and c = fs.(2)
      and d = fs.(3)
      and e = fs.(4)
      and g = fs.(5) in
      fun () ->
        a ();
        b ();
        c ();
        d ();
        e ();
        g ()
  | m ->
      fun () ->
        for k = 0 to m - 1 do
          (Array.unsafe_get fs k) ()
        done

(* The bounds check of a guarded access, raising what [Env.read_*] and
   [write_*] raise.  This helper and the next are closed, so ocamlopt
   inlines them into each closure below without flambda. *)
let[@inline] guard arr_len slot name idx =
  if idx < 0 || idx >= Array.unsafe_get arr_len slot then
    raise (Env.Out_of_bounds (name, idx))

(* A single-term affine index: [const + coeff * iv]. *)
let[@inline] index1 cst a coeff ivs d0 =
  Array.unsafe_get cst a + (Array.unsafe_get coeff 0 * Array.unsafe_get ivs d0)

let compile_body ~check ?trace (st : Flat.state) =
  let prog = st.prog in
  let f = st.fregs and i = st.iregs in
  let ivs = st.ivs in
  let cst = st.acc_const and arr_len = st.arr_len in
  let arr_f = st.arr_f and arr_i = st.arr_i in
  let traps = prog.traps in
  (* Index function of access [a], specialized on the (static) term count;
     coefficients and constants are read from the state so rebinding for a
     new n/env needs no recompilation. *)
  let compile_addr a =
    let acc = prog.accesses.(a) in
    if acc.acc_ind >= 0 then begin
      let r = acc.acc_ind in
      fun () -> Array.unsafe_get i r
    end
    else begin
      let coeff = st.acc_coeff.(a) and depth = st.acc_depth.(a) in
      match Array.length coeff with
      | 0 -> fun () -> Array.unsafe_get cst a
      | 1 ->
          let d0 = depth.(0) in
          fun () -> index1 cst a coeff ivs d0
      | 2 ->
          let d0 = depth.(0) and d1 = depth.(1) in
          fun () ->
            Array.unsafe_get cst a
            + (Array.unsafe_get coeff 0 * Array.unsafe_get ivs d0)
            + (Array.unsafe_get coeff 1 * Array.unsafe_get ivs d1)
      | nt ->
          fun () ->
            let s = ref (Array.unsafe_get cst a) in
            for j = 0 to nt - 1 do
              s :=
                !s
                + (Array.unsafe_get coeff j
                  * Array.unsafe_get ivs (Array.unsafe_get depth j))
            done;
            !s
    end
  in
  (* A traced access reports (array slot, index, is_write) after computing
     its index and before the bounds check, as [Env.read_*]/[write_*] do, so
     a trapping access is traced too. *)
  let index_of ~write a =
    let addr = compile_addr a in
    match trace with
    | None -> addr
    | Some hook ->
        let slot = prog.accesses.(a).acc_arr in
        fun () ->
          let idx = addr () in
          hook slot idx write;
          idx
  in
  (* How each access finds its index.  The guarded nest, traced or not,
     computes every index through [index_of] and checks it.  The unchecked
     nest inlines the two hot shapes, indirect (still guarded) and
     single-term affine, and calls the index closure for every other affine
     index, unguarded. *)
  let shape ~write a =
    let acc = prog.accesses.(a) in
    if check then `Guarded (index_of ~write a)
    else if acc.acc_ind >= 0 then `Ind acc.acc_ind
    else if Array.length st.acc_coeff.(a) = 1 then
      `Aff1 (st.acc_coeff.(a), st.acc_depth.(a).(0))
    else `Affine (compile_addr a)
  in
  let closures =
    Array.map
      (fun (insn : Program.insn) ->
        match insn with
        | Fbin { op = Op.Add; d; a; b } ->
            fun () ->
              Array.unsafe_set f d (Array.unsafe_get f a +. Array.unsafe_get f b)
        | Fbin { op = Op.Sub; d; a; b } ->
            fun () ->
              Array.unsafe_set f d (Array.unsafe_get f a -. Array.unsafe_get f b)
        | Fbin { op = Op.Mul; d; a; b } ->
            fun () ->
              Array.unsafe_set f d (Array.unsafe_get f a *. Array.unsafe_get f b)
        | Fbin { op = Op.Div; d; a; b } ->
            fun () ->
              Array.unsafe_set f d (Array.unsafe_get f a /. Array.unsafe_get f b)
        | Fbin { op = Op.Min; d; a; b } ->
            fun () ->
              Array.unsafe_set f d
                (Float.min (Array.unsafe_get f a) (Array.unsafe_get f b))
        | Fbin { op = Op.Max; d; a; b } ->
            fun () ->
              Array.unsafe_set f d
                (Float.max (Array.unsafe_get f a) (Array.unsafe_get f b))
        | Fbin { op = Op.Rem | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr; _ } ->
            fun () -> invalid_arg "Interp: integer-only binop on floats"
        | Funary { op = Op.Neg; d; a } -> fun () -> Array.unsafe_set f d (-.Array.unsafe_get f a)
        | Funary { op = Op.Abs; d; a } ->
            fun () -> Array.unsafe_set f d (abs_float (Array.unsafe_get f a))
        | Funary { op = Op.Sqrt; d; a } ->
            fun () -> Array.unsafe_set f d (sqrt (Array.unsafe_get f a))
        | Funary { op = Op.Not; _ } ->
            fun () -> invalid_arg "Interp: not on float"
        | Fma { d; a; b; c } (* unfused, like the interpreter *) ->
            fun () ->
              Array.unsafe_set f d
                ((Array.unsafe_get f a *. Array.unsafe_get f b)
                +. Array.unsafe_get f c)
        | Fcmp { op = Op.Eq; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (if Array.unsafe_get f a = Array.unsafe_get f b then 1 else 0)
        | Fcmp { op = Op.Ne; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (if Array.unsafe_get f a <> Array.unsafe_get f b then 1 else 0)
        | Fcmp { op = Op.Lt; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (if Array.unsafe_get f a < Array.unsafe_get f b then 1 else 0)
        | Fcmp { op = Op.Le; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (if Array.unsafe_get f a <= Array.unsafe_get f b then 1 else 0)
        | Fcmp { op = Op.Gt; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (if Array.unsafe_get f a > Array.unsafe_get f b then 1 else 0)
        | Fcmp { op = Op.Ge; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (if Array.unsafe_get f a >= Array.unsafe_get f b then 1 else 0)
        | Fsel { d; a; b; c } ->
            fun () ->
              Array.unsafe_set f d
                (if Array.unsafe_get i c <> 0 then Array.unsafe_get f a
                 else Array.unsafe_get f b)
        | Isel { d; a; b; c } ->
            fun () ->
              Array.unsafe_set i d
                (if Array.unsafe_get i c <> 0 then Array.unsafe_get i a
                 else Array.unsafe_get i b)
        | Fsel_trap { d; a; trap = b; c; traps_if = true } ->
            let msg = traps.(b) in
            fun () ->
              if Array.unsafe_get i c <> 0 then invalid_arg msg
              else Array.unsafe_set f d (Array.unsafe_get f a)
        | Fsel_trap { d; a; trap = b; c; traps_if = false } ->
            let msg = traps.(b) in
            fun () ->
              if Array.unsafe_get i c = 0 then invalid_arg msg
              else Array.unsafe_set f d (Array.unsafe_get f a)
        | Isel_trap { d; a; trap = b; c; traps_if = true } ->
            let msg = traps.(b) in
            fun () ->
              if Array.unsafe_get i c <> 0 then invalid_arg msg
              else Array.unsafe_set i d (Array.unsafe_get i a)
        | Isel_trap { d; a; trap = b; c; traps_if = false } ->
            let msg = traps.(b) in
            fun () ->
              if Array.unsafe_get i c = 0 then invalid_arg msg
              else Array.unsafe_set i d (Array.unsafe_get i a)
        | F_of_i { d; a } ->
            fun () -> Array.unsafe_set f d (float_of_int (Array.unsafe_get i a))
        | I_of_f { d; a } ->
            fun () -> Array.unsafe_set i d (int_of_float (Array.unsafe_get f a))
        | Ibin { op = Op.Add; d; a; b } ->
            fun () ->
              Array.unsafe_set i d (Array.unsafe_get i a + Array.unsafe_get i b)
        | Ibin { op = Op.Sub; d; a; b } ->
            fun () ->
              Array.unsafe_set i d (Array.unsafe_get i a - Array.unsafe_get i b)
        | Ibin { op = Op.Mul; d; a; b } ->
            fun () ->
              Array.unsafe_set i d (Array.unsafe_get i a * Array.unsafe_get i b)
        | Ibin { op = Op.Div; d; a; b } ->
            fun () ->
              let bv = Array.unsafe_get i b in
              if bv = 0 then invalid_arg "Interp: division by zero"
              else Array.unsafe_set i d (Array.unsafe_get i a / bv)
        | Ibin { op = Op.Rem; d; a; b } ->
            fun () ->
              let bv = Array.unsafe_get i b in
              if bv = 0 then invalid_arg "Interp: rem by zero"
              else Array.unsafe_set i d (Array.unsafe_get i a mod bv)
        | Ibin { op = Op.Min; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (min (Array.unsafe_get i a) (Array.unsafe_get i b))
        | Ibin { op = Op.Max; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (max (Array.unsafe_get i a) (Array.unsafe_get i b))
        | Ibin { op = Op.And; d; a; b } ->
            fun () ->
              Array.unsafe_set i d (Array.unsafe_get i a land Array.unsafe_get i b)
        | Ibin { op = Op.Or; d; a; b } ->
            fun () ->
              Array.unsafe_set i d (Array.unsafe_get i a lor Array.unsafe_get i b)
        | Ibin { op = Op.Xor; d; a; b } ->
            fun () ->
              Array.unsafe_set i d (Array.unsafe_get i a lxor Array.unsafe_get i b)
        | Ibin { op = Op.Shl; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (Array.unsafe_get i a lsl (Array.unsafe_get i b land 63))
        | Ibin { op = Op.Shr; d; a; b } ->
            fun () ->
              Array.unsafe_set i d
                (Array.unsafe_get i a asr (Array.unsafe_get i b land 63))
        | Iunary { op = Op.Neg; d; a } -> fun () -> Array.unsafe_set i d (-Array.unsafe_get i a)
        | Iunary { op = Op.Abs; d; a } ->
            fun () -> Array.unsafe_set i d (abs (Array.unsafe_get i a))
        | Iunary { op = Op.Not; d; a } ->
            fun () -> Array.unsafe_set i d (lnot (Array.unsafe_get i a))
        | Iunary { op = Op.Sqrt; _ } ->
            fun () -> invalid_arg "Interp: sqrt on int"
        | Fload { d; acc = a } -> (
            let { Program.acc_arr = slot; acc_name = name; _ } = prog.accesses.(a) in
            match shape ~write:false a with
            | `Ind r ->
                fun () ->
                  let idx = Array.unsafe_get i r in
                  guard arr_len slot name idx;
                  Array.unsafe_set f d
                    (Array.unsafe_get (Array.unsafe_get arr_f slot) idx)
            | `Aff1 (coeff, d0) ->
                fun () ->
                  Array.unsafe_set f d
                    (Array.unsafe_get (Array.unsafe_get arr_f slot)
                       (index1 cst a coeff ivs d0))
            | `Affine addr ->
                fun () ->
                  Array.unsafe_set f d
                    (Array.unsafe_get (Array.unsafe_get arr_f slot) (addr ()))
            | `Guarded addr ->
                fun () ->
                  let idx = addr () in
                  guard arr_len slot name idx;
                  Array.unsafe_set f d
                    (Array.unsafe_get (Array.unsafe_get arr_f slot) idx))
        | Iload { d; acc = a } -> (
            let { Program.acc_arr = slot; acc_name = name; _ } = prog.accesses.(a) in
            match shape ~write:false a with
            | `Ind r ->
                fun () ->
                  let idx = Array.unsafe_get i r in
                  guard arr_len slot name idx;
                  Array.unsafe_set i d
                    (Array.unsafe_get (Array.unsafe_get arr_i slot) idx)
            | `Aff1 (coeff, d0) ->
                fun () ->
                  Array.unsafe_set i d
                    (Array.unsafe_get (Array.unsafe_get arr_i slot)
                       (index1 cst a coeff ivs d0))
            | `Affine addr ->
                fun () ->
                  Array.unsafe_set i d
                    (Array.unsafe_get (Array.unsafe_get arr_i slot) (addr ()))
            | `Guarded addr ->
                fun () ->
                  let idx = addr () in
                  guard arr_len slot name idx;
                  Array.unsafe_set i d
                    (Array.unsafe_get (Array.unsafe_get arr_i slot) idx))
        | Fstore { acc = a; src = b } -> (
            let { Program.acc_arr = slot; acc_name = name; _ } = prog.accesses.(a) in
            match shape ~write:true a with
            | `Ind r ->
                fun () ->
                  let idx = Array.unsafe_get i r in
                  guard arr_len slot name idx;
                  Array.unsafe_set (Array.unsafe_get arr_f slot) idx
                    (Array.unsafe_get f b)
            | `Aff1 (coeff, d0) ->
                fun () ->
                  Array.unsafe_set (Array.unsafe_get arr_f slot)
                    (index1 cst a coeff ivs d0) (Array.unsafe_get f b)
            | `Affine addr ->
                fun () ->
                  Array.unsafe_set (Array.unsafe_get arr_f slot) (addr ())
                    (Array.unsafe_get f b)
            | `Guarded addr ->
                fun () ->
                  let idx = addr () in
                  guard arr_len slot name idx;
                  Array.unsafe_set (Array.unsafe_get arr_f slot) idx
                    (Array.unsafe_get f b))
        | Istore { acc = a; src = b } -> (
            let { Program.acc_arr = slot; acc_name = name; _ } = prog.accesses.(a) in
            match shape ~write:true a with
            | `Ind r ->
                fun () ->
                  let idx = Array.unsafe_get i r in
                  guard arr_len slot name idx;
                  Array.unsafe_set (Array.unsafe_get arr_i slot) idx
                    (Array.unsafe_get i b)
            | `Aff1 (coeff, d0) ->
                fun () ->
                  Array.unsafe_set (Array.unsafe_get arr_i slot)
                    (index1 cst a coeff ivs d0) (Array.unsafe_get i b)
            | `Affine addr ->
                fun () ->
                  Array.unsafe_set (Array.unsafe_get arr_i slot) (addr ())
                    (Array.unsafe_get i b)
            | `Guarded addr ->
                fun () ->
                  let idx = addr () in
                  guard arr_len slot name idx;
                  Array.unsafe_set (Array.unsafe_get arr_i slot) idx
                    (Array.unsafe_get i b))
        | Trap a ->
            let msg = traps.(a) in
            fun () -> invalid_arg msg)
      prog.code
  in
  (* Reduction folds run after the body on every innermost iteration. *)
  let accs = st.accs in
  let red_closures =
    Array.mapi
      (fun j (r : Program.red) ->
        let s = r.rd_slot in
        match r.rd_op with
        | Op.Rsum ->
            fun () ->
              Array.unsafe_set accs j
                (Array.unsafe_get accs j +. Array.unsafe_get f s)
        | Op.Rprod ->
            fun () ->
              Array.unsafe_set accs j
                (Array.unsafe_get accs j *. Array.unsafe_get f s)
        | Op.Rmin ->
            fun () ->
              Array.unsafe_set accs j
                (Float.min (Array.unsafe_get accs j) (Array.unsafe_get f s))
        | Op.Rmax ->
            fun () ->
              Array.unsafe_set accs j
                (Float.max (Array.unsafe_get accs j) (Array.unsafe_get f s)))
      prog.reds
  in
  seq (Array.append closures red_closures)

(* Wrap the body in loop drivers, innermost outward, specializing on which
   mirror slots the body actually reads.  A traced nest is compiled once,
   guarded, and fills both fields: it never drops a check. *)
let compile ?trace (st : Flat.state) =
  let prog = st.prog in
  let bounds = st.bounds and ivs = st.ivs in
  let f = st.fregs and i = st.iregs in
  let wrap depth body =
    let l = prog.loops.(depth) in
    let start = l.l_start and step = l.l_step in
    let islot = l.l_islot and fslot = l.l_fslot in
    if islot < 0 && fslot < 0 then
      fun () ->
        let b = Array.unsafe_get bounds depth in
        let v = ref start in
        while !v < b do
          Array.unsafe_set ivs depth !v;
          body ();
          v := !v + step
        done
    else if fslot < 0 then
      fun () ->
        let b = Array.unsafe_get bounds depth in
        let v = ref start in
        while !v < b do
          let cur = !v in
          Array.unsafe_set ivs depth cur;
          Array.unsafe_set i islot cur;
          body ();
          v := cur + step
        done
    else if islot < 0 then
      fun () ->
        let b = Array.unsafe_get bounds depth in
        let v = ref start in
        while !v < b do
          let cur = !v in
          Array.unsafe_set ivs depth cur;
          Array.unsafe_set f fslot (float_of_int cur);
          body ();
          v := cur + step
        done
    else
      fun () ->
        let b = Array.unsafe_get bounds depth in
        let v = ref start in
        while !v < b do
          let cur = !v in
          Array.unsafe_set ivs depth cur;
          Array.unsafe_set i islot cur;
          Array.unsafe_set f fslot (float_of_int cur);
          body ();
          v := cur + step
        done
  in
  let rec build check depth =
    if depth = Array.length prog.loops then compile_body ~check ?trace st
    else wrap depth (build check (depth + 1))
  in
  match trace with
  | None -> { checked = build true 0; unchecked = build false 0 }
  | Some _ ->
      let traced = build true 0 in
      { checked = traced; unchecked = traced }

(* Can the unchecked body run?  True when every affine access provably stays
   inside [0, len) over the bound iteration space: the index is monotone in
   each loop variable, so its extrema are attained at the per-loop extreme
   values, which [Flat.bind] has just fixed.  The iteration-range and hull
   math lives in [Vir.Ibox], shared with the static analyses so the proofs
   cannot drift.  Indirect accesses are checked in both body variants, so
   they place no obligation here.  A provably empty loop (including one
   with a non-positive step whose guard fails immediately) makes the whole
   nest vacuously safe; a non-positive step over a nonempty range stays
   conservatively unprovable and costs only the guards. *)
let affine_safe (st : Flat.state) =
  let prog = st.prog in
  let nloops = Array.length prog.loops in
  let ranges = Array.make (max 1 nloops) (Ibox.point 0) in
  let ok = ref true in
  let empty = ref false in
  for d = 0 to nloops - 1 do
    let l = prog.loops.(d) in
    match
      Ibox.loop_values ~start:l.l_start ~step:l.l_step ~bound:st.bounds.(d)
    with
    | `Empty -> empty := true
    | `Unknown -> ok := false
    | `Range r -> ranges.(d) <- r
  done;
  (* An empty loop at any depth means the body never executes at all. *)
  !empty
  || (!ok
     && begin
          let safe = ref true in
          Array.iteri
            (fun a (acc : Program.access) ->
              if !safe && acc.acc_ind < 0 then begin
                let hull =
                  Ibox.affine_hull ~const:st.acc_const.(a)
                    ~coeff:st.acc_coeff.(a) ~depth:st.acc_depth.(a)
                    ~env:ranges
                in
                if
                  not
                    (Ibox.within hull ~lo:0
                       ~hi:(st.arr_len.(acc.acc_arr) - 1))
                then safe := false
              end)
            prog.accesses;
          !safe
        end)

let run_bound (st : Flat.state) (compiled : t) =
  let reds = st.prog.reds in
  for j = 0 to Array.length reds - 1 do
    st.accs.(j) <- reds.(j).rd_init
  done;
  (if affine_safe st then compiled.unchecked else compiled.checked) ();
  Array.to_list
    (Array.mapi (fun j (r : Program.red) -> (r.rd_name, st.accs.(j))) reds)

let run_in st compiled env =
  Flat.bind st env;
  run_bound st compiled
