(* Random kernel generator.

   Two uses: property-based testing of the whole pipeline (every generated
   kernel must validate, interpret, and survive vectorization with identical
   semantics), and the paper's future-work item of widening the training set
   beyond TSVC with synthetic loop bodies ("add more tests to cover all
   instruction types"). *)

open Vir

(* Deterministic splitmix-style PRNG so a kernel is a pure function of its
   seed. *)
type rng = { mutable state : int }

let rng seed = { state = (seed * 2654435761) land max_int }

let next r =
  let x = r.state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  r.state <- x land max_int;
  r.state

let range r lo hi = lo + (next r mod (hi - lo + 1))

let pick r xs = List.nth xs (range r 0 (List.length xs - 1))

(* Pools the generator draws from. *)
let input_arrays = [ "b"; "c"; "d"; "e" ]

let arith_ops = [ Op.Add; Op.Sub; Op.Mul; Op.Min; Op.Max ]

(* Generate one kernel.  The shape is a single innermost loop whose body
   loads a few values (with a random mix of access patterns), combines them
   through a random expression tree, optionally guards with a compare+select,
   and ends in a contiguous store and/or a reduction.  Construction is
   correct by construction: no illegal dependences are ever introduced, which
   the tests then verify through [Vdeps]. *)
let kernel seed =
  let r = rng (seed + 1) in
  let b = Builder.make (Printf.sprintf "synth%04d" seed) ~descr:"generated" in
  let i = Builder.loop b "i" Kernel.Tn in
  (* Loads: 2-4 values with varied access patterns. *)
  let n_loads = range r 2 4 in
  let loads =
    List.init n_loads (fun j ->
        let arr = List.nth input_arrays (j mod List.length input_arrays) in
        match range r 0 9 with
        | 0 -> Builder.load b arr [ Builder.ix_rev i ]
        | 1 -> Builder.load b arr [ Builder.ix ~scale:2 i ]
        | 2 -> Builder.load b arr [ Builder.ix ~off:(range r 1 3) i ]
        | 3 ->
            let idx = Builder.load_index b "ip" [ Builder.ix i ] in
            Builder.load_ix b arr idx
        | _ -> Builder.load b arr [ Builder.ix i ])
  in
  (* Expression tree over the loaded values. *)
  let n_ops = range r 1 8 in
  let values = ref loads in
  for _ = 1 to n_ops do
    let x = pick r !values and y = pick r !values in
    let v =
      match range r 0 9 with
      | 0 -> Builder.fma b x y (pick r !values)
      | 1 -> Builder.divf b x (Builder.cf (1.0 +. float_of_int (range r 1 4)))
      | 2 -> Builder.sqrtf b (Builder.absf b x)
      | 3 ->
          let cond = Builder.cmp b Op.Gt x y in
          Builder.select b cond x y
      | _ -> Builder.bin b Types.F32 (pick r arith_ops) x y
    in
    values := v :: !values
  done;
  let result = List.hd !values in
  (* Sink: contiguous store, reduction, or both. *)
  (match range r 0 3 with
  | 0 -> Builder.reduce b "acc" (pick r Op.all_redops) result ~init:0.0
  | 1 ->
      Builder.store b "a" [ Builder.ix i ] result;
      Builder.reduce b "acc" Op.Rsum result
  | _ -> Builder.store b "a" [ Builder.ix i ] result);
  Builder.finish b

(* A batch of kernels for training-set extension experiments. *)
let batch ~count seed = List.init count (fun j -> kernel (seed + j))

(* Adversarial dependence kernels: several statements reading and writing
   ONE array at random small offsets, in random order.  Unlike [kernel],
   these are frequently *illegal* to vectorize; they exist to stress the
   soundness contract that the tests then check: whenever the dependence
   analysis declares a width legal, the vectorized execution must match the
   scalar one bit for bit. *)
let dep_kernel seed =
  let r = rng (seed + 77) in
  let b = Builder.make (Printf.sprintf "dep%04d" seed) ~descr:"generated (dependence stress)" in
  let i = Builder.loop b ~start:4 "i" (Kernel.Tn_minus 4) in
  let off () = range r (-3) 3 in
  let load_a () = Builder.load b "a" [ Builder.ix ~off:(off ()) i ] in
  let load_other name = Builder.load b name [ Builder.ix i ] in
  let nstmt = range r 2 4 in
  let last = ref (load_other "b") in
  for _ = 1 to nstmt do
    let v =
      match range r 0 3 with
      | 0 -> Builder.addf b (load_a ()) !last
      | 1 -> Builder.mulf b (load_other "c") !last
      | 2 -> Builder.fma b (load_a ()) (load_other "b") !last
      | _ -> Builder.subf b !last (load_a ())
    in
    last := v;
    match range r 0 2 with
    | 0 -> Builder.store b "a" [ Builder.ix ~off:(off ()) i ] v
    | 1 -> Builder.store b "d" [ Builder.ix i ] v
    | _ -> ()
  done;
  (* Guarantee an observable effect and at least one write to [a]. *)
  Builder.store b "a" [ Builder.ix ~off:(off ()) i ] !last;
  Builder.finish b

(* Two-level nests over one matrix with random small offsets in both
   subscripts: the direction-vector stress for the nest-wide graph.  The
   inner loop is what LLV/SLP widen, so these also feed the legality
   cross-check; offsets are clamped to the [start=2 / Tn2_minus 4] margin
   so every subscript stays in bounds at any problem size. *)
let nest_kernel seed =
  let r = rng (seed + 131) in
  let b =
    Builder.make
      (Printf.sprintf "nest%04d" seed)
      ~descr:"generated (2-level dependence stress)"
  in
  let j = Builder.loop b ~start:2 "j" (Kernel.Tn2_minus 4) in
  let i = Builder.loop b ~start:2 "i" (Kernel.Tn2_minus 4) in
  let off () = range r (-2) 2 in
  let load_aa () =
    Builder.load b "aa" [ Builder.ix ~off:(off ()) j; Builder.ix ~off:(off ()) i ]
  in
  let load_other name = Builder.load b name [ Builder.ix i ] in
  let nstmt = range r 1 3 in
  let last = ref (load_other "b") in
  for _ = 1 to nstmt do
    let v =
      match range r 0 3 with
      | 0 -> Builder.addf b (load_aa ()) !last
      | 1 -> Builder.mulf b (load_other "c") !last
      | 2 -> Builder.fma b (load_aa ()) (load_other "b") !last
      | _ -> Builder.subf b !last (load_aa ())
    in
    last := v;
    match range r 0 2 with
    | 0 ->
        Builder.store b "aa"
          [ Builder.ix ~off:(off ()) j; Builder.ix ~off:(off ()) i ]
          v
    | 1 -> Builder.store b "d" [ Builder.ix i ] v
    | _ -> ()
  done;
  (* Guarantee an observable effect and at least one write to [aa]. *)
  Builder.store b "aa"
    [ Builder.ix ~off:(off ()) j; Builder.ix ~off:(off ()) i ]
    !last;
  Builder.finish b
