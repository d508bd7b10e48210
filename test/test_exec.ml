(* Interp-vs-closure equivalence for the execution engine (lib/exec).

   The closure tier must reproduce the reference interpreter bit-for-bit
   — final memory image, reduction values, execution digest, trap
   behaviour, and the access stream a [prepare ~trace] hook sees — on the
   full TSVC registry (plus normalized and unrolled variants), on 550
   generated kernels per run and on a kernel whose loads and stores are
   typed against their arrays' storage; the guarded nest also runs alone
   on every registry, typed and apps kernel.  Seeded mis-lowerings
   (corrupted access stride, wrong reduction init) run through the same
   closure compiler must be caught by the same comparison, and samples
   built through [Dataset] must be deterministic in backend, digest and
   worker count. *)

open Vir
open Costmodel
module Backend = Vexec.Backend
module Program = Vexec.Program
module Flat = Vexec.Flat
module Closure = Vexec.Closure
module Env = Vinterp.Env

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* NaN-tolerant elementwise equality: every op is replicated exactly, so
   values agree bitwise up to 0/-0 (which the digest check below pins). *)
let float_eq x y = x = y || (Float.is_nan x && Float.is_nan y)

type outcome =
  | Ran of (string * float array) list * (string * float) list * string * string
      (* snapshot, reductions, digest, trace fingerprint *)
  | Trapped of string * string  (* trap class, trace fingerprint *)

(* Traps must agree across backends: out-of-bounds exactly (same array,
   same index), other [Invalid_argument] traps by class (operand
   evaluation order inside one instruction is unspecified in the
   interpreter, so messages may legitimately differ). *)
let classify = function
  | Env.Out_of_bounds (name, idx) -> Printf.sprintf "oob:%s:%d" name idx
  | Invalid_argument _ -> "invalid_arg"
  | e -> raise e

(* A traced run over a fresh environment, fingerprinted: the access count,
   an order-sensitive hash of every (slot, index, is_write) reported, and
   how the run ended (digest, or trap class), so the prefix traced before a
   trap is pinned too.  [run trace env] executes the traced nest. *)
let fingerprint ~n k run =
  let count = ref 0 and h = ref 0 in
  let trace slot idx write =
    incr count;
    h := Hashtbl.hash (!h, slot, idx, write)
  in
  let ending =
    match
      let env = Env.create ~n k in
      Backend.digest env (run trace env)
    with
    | d -> d
    | exception e -> classify e
  in
  Printf.sprintf "%d accesses, hash %x, %s" !count !h ending

let trace_fingerprint backend ~n k =
  fingerprint ~n k (fun trace env ->
      Backend.run_in (Backend.prepare ~trace backend k) env)

let run_on backend ~n k =
  let trace = trace_fingerprint backend ~n k in
  match Backend.run ~n backend k with
  | r ->
      Ran
        ( Env.snapshot r.Vinterp.Interp.env,
          r.Vinterp.Interp.reductions,
          Backend.digest r.Vinterp.Interp.env r.Vinterp.Interp.reductions,
          trace )
  | exception e -> Trapped (classify e, trace)

let outcome_mismatch ref_out out =
  let trace_mismatch t1 t2 =
    if String.equal t1 t2 then None
    else Some (Printf.sprintf "traced stream %s vs %s" t1 t2)
  in
  match (ref_out, out) with
  | Trapped (a, t1), Trapped (b, t2) ->
      if String.equal a b then trace_mismatch t1 t2
      else Some (Printf.sprintf "trap %s vs %s" a b)
  | Trapped (a, _), Ran _ -> Some (Printf.sprintf "ref trapped (%s), backend ran" a)
  | Ran _, Trapped (b, _) -> Some (Printf.sprintf "ref ran, backend trapped (%s)" b)
  | Ran (s1, r1, d1, t1), Ran (s2, r2, d2, t2) ->
      let arr_bad =
        List.length s1 <> List.length s2
        || List.exists2
             (fun (na, xa) (nb, xb) ->
               (not (String.equal na nb))
               || Array.length xa <> Array.length xb
               || not (Array.for_all2 float_eq xa xb))
             s1 s2
      in
      let red_bad =
        List.length r1 <> List.length r2
        || List.exists2
             (fun (na, va) (nb, vb) ->
               (not (String.equal na nb)) || not (float_eq va vb))
             r1 r2
      in
      if arr_bad then Some "memory image differs"
      else if red_bad then Some "reductions differ"
      else if not (String.equal d1 d2) then Some "digest differs"
      else trace_mismatch t1 t2

(* Interp is the oracle; the closure tier must match it. *)
let assert_equiv ~what ~n k =
  match
    outcome_mismatch (run_on Backend.Interp ~n k) (run_on Backend.Closure ~n k)
  with
  | None -> ()
  | Some why ->
      Alcotest.failf "%s: closure tier diverges at n=%d: %s" what n why

(* --- backend selection ----------------------------------------------------- *)

(* Both tiers' names round-trip, and the retired "flat" name is unknown,
   so [VECMODEL_BACKEND=flat] takes the warn-and-fall-back path. *)
let test_backend_selection () =
  List.iter
    (fun b ->
      check (Backend.to_string b ^ " round-trips") true
        (Backend.of_string (Backend.to_string b) = Some b))
    [ Backend.Interp; Backend.Closure ];
  check "flat is not a backend" true (Backend.of_string "flat" = None)

(* --- registry-wide equivalence -------------------------------------------- *)

let registry_entries = Tsvc.Registry.all @ Tsvc.Registry.typed_extension

(* Every registry, typed and apps kernel. *)
let all_kernels =
  List.map
    (fun (e : Tsvc.Registry.entry) -> e.kernel)
    (registry_entries @ Vapps.Registry.as_tsvc_entries)

(* A kernel no registry holds: float and int loads and stores on one float
   array [a] and one int array [b], four of them typed against their
   array's storage, and reductions over two of the converted loads.
   [Program.lower] gives each of those four accesses its array's register
   file plus an explicit conversion. *)
let mixed_storage_kernel =
  let at arr off =
    Instr.Affine
      { arr; dims = [ { Instr.terms = [ ("i", 2) ]; pterms = []; off; rel_n = false } ] }
  in
  let decl arr_name arr_ty =
    { Kernel.arr_name; arr_ty; arr_extent = Kernel.Lin (2, 0); arr_role = Kernel.Data }
  in
  {
    Kernel.name = "mixed_storage";
    descr = "loads and stores typed against their array's storage";
    loops = [ { Kernel.var = "i"; trip = Kernel.Tn; start = 0; step = 1 } ];
    body =
      Instr.
        [ Load { ty = Types.F32; addr = at "a" 0 };
          Load { ty = Types.I32; addr = at "a" 0 };
          Load { ty = Types.F32; addr = at "b" 1 };
          Load { ty = Types.I32; addr = at "b" 1 };
          Bin { ty = Types.F32; op = Op.Mul; a = Reg 0; b = Reg 2 };
          Bin { ty = Types.I32; op = Op.Add; a = Reg 1; b = Reg 3 };
          Store { ty = Types.F32; addr = at "a" 0; src = Reg 4 };
          Store { ty = Types.I32; addr = at "a" 1; src = Reg 5 };
          Store { ty = Types.F32; addr = at "b" 0; src = Reg 4 };
          Store { ty = Types.I32; addr = at "b" 1; src = Reg 5 } ];
    reductions =
      [ { Kernel.red_name = "sum_b"; red_ty = Types.F32; red_op = Op.Rsum;
          red_src = Instr.Reg 2; red_init = 0.0 };
        { Kernel.red_name = "max_a"; red_ty = Types.I32; red_op = Op.Rmax;
          red_src = Instr.Reg 1; red_init = Float.neg_infinity } ];
    arrays = [ decl "a" Types.F32; decl "b" Types.I32 ];
    params = [];
  }

(* --- lowered programs ---------------------------------------------------- *)

(* [Closure] reads register slots, access ids and loop depths with
   [unsafe_get], so a lowering bug there would corrupt memory silently
   instead of trapping: every index a lowered program holds must lie inside
   the array it indexes.  Every load and store must also name an array of
   its own register file's kind, since the closures read that file's
   storage. *)
let test_lowered_well_formed () =
  check_int "mixed_storage: four ill-typed accesses" 4
    (List.length (Validate.errors mixed_storage_kernel));
  List.iter
    (fun (k : Kernel.t) ->
      let p = Program.lower k in
      let inside what n x =
        if x < 0 || x >= n then
          Alcotest.failf "%s: %s %d outside [0, %d)" k.name what x n
      in
      let f = inside "float slot" p.nf and i = inside "int slot" p.ni in
      let acc = inside "access id" (Array.length p.accesses) in
      let trap = inside "trap id" (Array.length p.traps) in
      let depth = inside "loop depth" (Array.length p.loops) in
      let stored ~float a =
        acc a;
        let slot = p.accesses.(a).acc_arr in
        inside "array slot" (Array.length p.arr_float) slot;
        if p.arr_float.(slot) <> float then
          Alcotest.failf "%s: access %d to %s uses the %s register file"
            k.name a p.arr_names.(slot) (if float then "float" else "int")
      in
      Array.iter
        (fun (insn : Program.insn) ->
          match insn with
          | Fbin { d; a; b; _ } -> f d; f a; f b
          | Ibin { d; a; b; _ } -> i d; i a; i b
          | Funary { d; a; _ } -> f d; f a
          | Iunary { d; a; _ } -> i d; i a
          | Fma { d; a; b; c } -> f d; f a; f b; f c
          | Fcmp { d; a; b; _ } -> i d; f a; f b
          | Fsel { d; a; b; c } -> f d; f a; f b; i c
          | Isel { d; a; b; c } -> i d; i a; i b; i c
          | Fsel_trap { d; a; trap = t; c; _ } -> f d; f a; trap t; i c
          | Isel_trap { d; a; trap = t; c; _ } -> i d; i a; trap t; i c
          | F_of_i { d; a } -> f d; i a
          | I_of_f { d; a } -> i d; f a
          | Fload { d; acc = a } -> f d; stored ~float:true a
          | Iload { d; acc = a } -> i d; stored ~float:false a
          | Fstore { acc = a; src } -> stored ~float:true a; f src
          | Istore { acc = a; src } -> stored ~float:false a; i src
          | Trap t -> trap t)
        p.code;
      Array.iter
        (fun (a : Program.access) ->
          inside "array slot" (Array.length p.arr_names) a.acc_arr;
          if a.acc_ind >= 0 then i a.acc_ind;
          Array.iter (fun (t : Program.aterm) -> depth t.t_depth) a.acc_terms)
        p.accesses;
      Array.iter
        (fun (l : Program.loopdesc) ->
          if l.l_islot >= 0 then i l.l_islot;
          if l.l_fslot >= 0 then f l.l_fslot)
        p.loops;
      Array.iter (fun (r : Program.red) -> f r.rd_slot) p.reds)
    (mixed_storage_kernel :: all_kernels)

let test_registry_equivalence () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let k = e.kernel in
      List.iter (fun n -> assert_equiv ~what:k.Kernel.name ~n k) [ 64; 101 ])
    registry_entries

(* Conversions between storage and register kinds are instructions of
   their own, so [mixed_storage_kernel] must still match the interpreter. *)
let test_mixed_storage_equivalence () =
  List.iter
    (fun n ->
      (match Vinterp.Interp.run ~n mixed_storage_kernel with
      | _ -> ()
      | exception e ->
          Alcotest.failf "mixed_storage: interp traps at n=%d (%s)" n
            (classify e));
      assert_equiv ~what:"mixed_storage" ~n mixed_storage_kernel)
    [ 17; 64; 101 ]

(* The guarded nest run to completion.  The bind-time proof holds for every
   kernel below, so a backend run takes the unchecked nest: here a [t] whose
   two fields are both the guarded nest runs it instead, and must match the
   interpreter without trapping. *)
let test_guarded_nest_equivalence () =
  let ran ~n k run =
    let env = Env.create ~n k in
    match run env with
    | reds -> Ran (Env.snapshot env, reds, Backend.digest env reds, "")
    | exception e -> Trapped (classify e, "")
  in
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun (what, k) ->
          let st = Flat.create (Program.lower k) in
          let c = Closure.compile st in
          let guarded = { c with Closure.unchecked = c.Closure.checked } in
          List.iter
            (fun n ->
              let reference = ran ~n k (fun env -> Vinterp.Interp.run_in env k) in
              (match reference with
              | Ran _ -> ()
              | Trapped (why, _) ->
                  Alcotest.failf "%s: interp traps at n=%d (%s)" what n why);
              match
                outcome_mismatch reference
                  (ran ~n k (fun env -> Closure.run_in st guarded env))
              with
              | None -> ()
              | Some why ->
                  Alcotest.failf "%s: guarded nest diverges at n=%d: %s" what
                    n why)
            [ 17; 64 ])
        [ (k.name, k); (k.name ^ "/normalized", Vanalysis.Opt.normalize k) ])
    all_kernels

(* Transformed shapes: the Opt normalization pipeline's output and unrolled
   variants (the scalar forms LLV expands to), both of which Dataset
   executes on the hot path. *)
let test_transformed_equivalence () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let k = e.kernel in
      let norm = Vanalysis.Opt.normalize k in
      assert_equiv ~what:(k.Kernel.name ^ "/normalized") ~n:64 norm;
      List.iter
        (fun uf ->
          let unrolled = Vvect.Unroll.by uf k in
          assert_equiv
            ~what:(Printf.sprintf "%s/unroll%d" k.Kernel.name uf)
            ~n:64 unrolled)
        [ 2; 4 ])
    registry_entries

(* Reduction kernels get a dedicated pass at more sizes: accumulator
   plumbing (init, combine order, final values) is where a lowering bug
   would hide from the memory-image comparison. *)
let test_reduction_equivalence () =
  let reducers =
    List.filter
      (fun (e : Tsvc.Registry.entry) -> e.kernel.Kernel.reductions <> [])
      registry_entries
  in
  check "registry has reduction kernels" true (List.length reducers >= 10);
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      List.iter
        (fun n -> assert_equiv ~what:(e.kernel.Kernel.name ^ "/red") ~n e.kernel)
        [ 17; 64; 257 ])
    reducers

(* --- generated kernels ----------------------------------------------------- *)

let equiv_prop ~name ~count gen =
  QCheck.Test.make ~count ~name
    QCheck.(int_bound 100_000)
    (fun seed ->
      let k = gen seed in
      List.iter (fun n -> assert_equiv ~what:k.Kernel.name ~n k) [ 17; 101 ];
      true)

let prop_synth =
  equiv_prop ~name:"backend equivalence: synthesized kernels" ~count:350
    Vsynth.Generator.kernel

let prop_dep =
  equiv_prop ~name:"backend equivalence: dependence-stress kernels" ~count:100
    Vsynth.Generator.dep_kernel

let prop_nest =
  equiv_prop ~name:"backend equivalence: 2-level nests" ~count:100
    Vsynth.Generator.nest_kernel

(* --- seeded mis-lowerings -------------------------------------------------- *)

(* A kernel with a strided affine access whose program we can corrupt. *)
let strided_kernel () =
  match Tsvc.Registry.find "s000" with
  | Some e -> e.kernel
  | None -> List.hd Tsvc.Registry.kernels

(* Compile [p] on the closure tier and run it over a fresh environment. *)
let run_program p k ~n =
  let st = Flat.create p in
  let env = Env.create ~n k in
  let reds = Closure.run_in st (Closure.compile st) env in
  Backend.digest env reds

(* The fingerprint of [p]'s traced nest. *)
let trace_program p k ~n =
  fingerprint ~n k (fun trace env ->
      let st = Flat.create p in
      Closure.run_in st (Closure.compile ~trace st) env)

(* Corrupting one affine coefficient must change the digest and the traced
   stream: proves the equivalence harness can see a mis-lowered stride,
   i.e. the suite is not vacuously green. *)
let test_seeded_stride_bug () =
  let k = strided_kernel () in
  let n = 64 in
  let reference =
    let r = Vinterp.Interp.run ~n k in
    Backend.digest r.Vinterp.Interp.env r.Vinterp.Interp.reductions
  in
  let reference_trace = trace_fingerprint Backend.Interp ~n k in
  let good = run_program (Program.lower k) k ~n in
  check_string "uncorrupted program matches interp" reference good;
  check_string "uncorrupted traced nest matches interp" reference_trace
    (trace_program (Program.lower k) k ~n);
  let p = Program.lower k in
  let corrupted = ref false in
  Array.iter
    (fun (a : Program.access) ->
      if (not !corrupted) && a.Program.acc_ind < 0
         && Array.length a.Program.acc_terms > 0
      then begin
        let t = a.Program.acc_terms.(0) in
        a.Program.acc_terms.(0) <- { t with Program.t_c1 = t.Program.t_c1 + 1 };
        corrupted := true
      end)
    p.Program.accesses;
  check "found an affine access to corrupt" true !corrupted;
  let bad =
    match run_program p k ~n with
    | d -> d
    | exception (Env.Out_of_bounds _ | Invalid_argument _) -> "trap"
  in
  check "stride bug detected by digest" false (String.equal reference bad);
  check "stride bug changes the traced stream" false
    (String.equal reference_trace (trace_program p k ~n))

(* Same for a reduction lowered with the wrong initial value. *)
let test_seeded_reduction_bug () =
  let k =
    match
      List.find_opt
        (fun (e : Tsvc.Registry.entry) -> e.kernel.Kernel.reductions <> [])
        registry_entries
    with
    | Some e -> e.kernel
    | None -> Alcotest.fail "no reduction kernel in registry"
  in
  let n = 64 in
  let reference =
    let r = Vinterp.Interp.run ~n k in
    Backend.digest r.Vinterp.Interp.env r.Vinterp.Interp.reductions
  in
  let p = Program.lower k in
  check "program has a reduction" true (Array.length p.Program.reds > 0);
  let r0 = p.Program.reds.(0) in
  p.Program.reds.(0) <- { r0 with Program.rd_init = r0.Program.rd_init +. 1.0 };
  let bad = run_program p k ~n in
  check "wrong reduction init detected by digest" false
    (String.equal reference bad)

(* --- Env.reset ------------------------------------------------------------- *)

let test_env_reset () =
  let k = strided_kernel () in
  let n = 101 in
  let env = Env.create ~n k in
  let fresh = Env.snapshot env in
  (* Remember buffer identities, dirty everything, then reset. *)
  let before =
    List.map
      (fun (d : Kernel.array_decl) -> (d.arr_name, Env.store env d.arr_name))
      k.Kernel.arrays
  in
  let prepared = Backend.prepare Backend.Closure k in
  ignore (Backend.run_in prepared env);
  Env.reset env k;
  let after = Env.snapshot env in
  check "reset restores the exact initial contents" true
    (List.for_all2
       (fun (na, xa) (nb, xb) ->
         String.equal na nb && Array.for_all2 Float.equal xa xb)
       fresh after);
  List.iter
    (fun (name, st) ->
      check
        (Printf.sprintf "reset reuses %s's buffer" name)
        true
        (st == Env.store env name))
    before;
  (* Repeated execute over one environment is digest-stable (this is the
     Dataset repeat path). *)
  let e1 = Vmachine.Measure.execute ~backend:Backend.Closure ~repeats:4 ~n k in
  let e2 = Vmachine.Measure.execute ~backend:Backend.Interp ~repeats:1 ~n k in
  check_string "repeat digest equals interp digest"
    e2.Vmachine.Measure.exec_digest e1.Vmachine.Measure.exec_digest

(* --- Dataset integration --------------------------------------------------- *)

let machine = Vmachine.Machines.neon_a57
let slice () = List.filteri (fun i _ -> i < 24) Tsvc.Registry.all

(* Both backends must produce identical samples (including the execution
   digest) through the full Dataset pipeline, under both transforms. *)
let test_dataset_backends_agree () =
  let build backend transform =
    Dataset.set_cache_enabled false;
    let s =
      Dataset.build ~backend ~machine ~transform ~n:256 (slice ())
    in
    Dataset.set_cache_enabled true;
    s
  in
  List.iter
    (fun transform ->
      let by_interp = build Backend.Interp transform in
      let by_closure = build Backend.Closure transform in
      check "interp slice non-empty" true (by_interp <> []);
      check_int "closure sample count"
        (List.length by_interp) (List.length by_closure);
      List.iter2
        (fun (a : Dataset.sample) (b : Dataset.sample) ->
          check_string (a.name ^ " digest interp=closure") a.exec_digest
            b.exec_digest;
          check (a.name ^ " measured equal") true
            (Float.equal a.measured b.measured))
        by_interp by_closure)
    [ Dataset.Llv; Dataset.Slp ]

(* Worker-count determinism: backend-computed samples (and their digests)
   must not depend on pool size. *)
let test_worker_determinism () =
  let build workers =
    let pool = Vpar.Pool.create ~size:workers in
    Dataset.cache_clear ();
    let s =
      Dataset.build ~backend:Backend.Closure ~pool ~machine
        ~transform:Dataset.Llv ~n:256 (slice ())
    in
    Vpar.Pool.shutdown pool;
    s
  in
  let s1 = build 1 in
  let s4 = build 4 in
  check "non-empty" true (s1 <> []);
  check_int "same count" (List.length s1) (List.length s4);
  List.iter2
    (fun (a : Dataset.sample) (b : Dataset.sample) ->
      check_string (a.name ^ " name") a.name b.name;
      check_string (a.name ^ " digest") a.exec_digest b.exec_digest;
      check_string (a.name ^ " backend") a.exec_backend b.exec_backend;
      check (a.name ^ " measured") true (Float.equal a.measured b.measured))
    s1 s4

(* Backend id is part of the cache key: the same config on two backends
   must occupy distinct entries, and [cache_backends] must attribute them. *)
let test_cache_backend_attribution () =
  Dataset.cache_clear ();
  let entries = List.filteri (fun i _ -> i < 8) Tsvc.Registry.all in
  let build backend =
    Dataset.build ~backend ~machine ~transform:Dataset.Llv ~n:256 entries
  in
  let s_interp = build Backend.Interp in
  let before = (Dataset.cache_stats ()).Dataset.entries in
  let s_closure = build Backend.Closure in
  let after = (Dataset.cache_stats ()).Dataset.entries in
  check "closure build misses the interp-built cache" true (after > before);
  let counts = Dataset.cache_backends () in
  check_int "interp entries attributed"
    (List.length s_interp)
    (try List.assoc "interp" counts with Not_found -> 0);
  check_int "closure entries attributed"
    (List.length s_closure)
    (try List.assoc "closure" counts with Not_found -> 0);
  Dataset.cache_clear ()

(* --- Execution memo ----------------------------------------------------------
   A build that misses the sample cache looks its execution digest up under
   what [Measure.execute] reads, not under the machine or the transform. *)

let exec_misses () = (Dataset.exec_stats ()).Dataset.misses

(* Builds sharing kernels across machines and transforms execute each
   kernel once, and serve the same samples as builds that execute every
   kernel: a later build misses only on kernels no earlier build ran. *)
let test_exec_memo_reuse () =
  let configs =
    Vmachine.Machines.
      [ (neon_a57, Dataset.Llv); (cortex_a53, Dataset.Llv);
        (xeon_avx2, Dataset.Slp) ]
  in
  let build (machine, transform) =
    Dataset.build ~machine ~transform ~n:256 Tsvc.Registry.all
  in
  Dataset.set_cache_enabled false;
  let reference = List.map build configs in
  Dataset.set_cache_enabled true;
  Dataset.cache_clear ();
  let executed = Hashtbl.create 256 in
  List.iter2
    (fun ((m : Vmachine.Descr.t), t) expected ->
      let label = m.name ^ "/" ^ Dataset.transform_to_string t in
      let before = exec_misses () in
      let samples = build (m, t) in
      let fresh =
        List.filter
          (fun (s : Dataset.sample) -> not (Hashtbl.mem executed s.name))
          samples
      in
      check_int (label ^ " misses only on kernels not run before")
        (List.length fresh)
        (exec_misses () - before);
      List.iter
        (fun (s : Dataset.sample) -> Hashtbl.replace executed s.name ())
        samples;
      check_int (label ^ " sample count") (List.length expected)
        (List.length samples);
      List.iter2
        (fun (a : Dataset.sample) (b : Dataset.sample) ->
          check_string (label ^ " " ^ a.name ^ " digest") a.exec_digest
            b.exec_digest;
          check (label ^ " " ^ a.name ^ " every field") true (a = b))
        expected samples)
    configs reference;
  check "later builds hit the memo" true ((Dataset.exec_stats ()).hits > 0);
  Dataset.cache_clear ()

(* Every input [Measure.execute] reads is in the key: another backend,
   seed, n or fault plan executes every kernel again. *)
let test_exec_memo_key () =
  Dataset.cache_clear ();
  let build ?(backend = Backend.Closure) ?(seed = 1) ?(n = 256) () =
    Dataset.build ~backend ~seed ~machine ~transform:Dataset.Llv ~n (slice ())
  in
  let kernels = List.length (build ()) in
  check "slice non-empty" true (kernels > 0);
  let plan =
    match Vfault.Plan.parse "seed=9;serve.drop=0.5" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let with_plan () =
    let saved = Vfault.Inject.active () in
    Vfault.Inject.set_active plan;
    Fun.protect
      ~finally:(fun () -> Vfault.Inject.set_active saved)
      (fun () -> build ())
  in
  List.iter
    (fun (label, run) ->
      let before = exec_misses () in
      check_int (label ^ " sample count") kernels (List.length (run ()));
      check_int (label ^ " misses every kernel") kernels
        (exec_misses () - before))
    [ ("interp backend", fun () -> build ~backend:Backend.Interp ());
      ("seed 2", fun () -> build ~seed:2 ());
      ("n 512", fun () -> build ~n:512 ());
      ("fault plan", with_plan) ];
  Dataset.cache_clear ()

(* [cache_clear] empties the memo and resets its counters, so a cold
   build executes every kernel. *)
let test_exec_memo_clear () =
  Dataset.cache_clear ();
  let build () =
    Dataset.build ~machine ~transform:Dataset.Llv ~n:256 (slice ())
  in
  let kernels = List.length (build ()) in
  check "first build executed" true (exec_misses () = kernels && kernels > 0);
  Dataset.cache_clear ();
  let cleared = Dataset.exec_stats () in
  check_int "counters reset" 0 (cleared.Dataset.hits + cleared.Dataset.misses);
  check_int "memo emptied" 0 cleared.Dataset.entries;
  ignore (build ());
  let after = Dataset.exec_stats () in
  check_int "every kernel misses" kernels after.Dataset.misses;
  check_int "no hits" 0 after.Dataset.hits;
  Dataset.cache_clear ()

let tests =
  [ Alcotest.test_case "backend selection: interp and closure" `Quick
      test_backend_selection;
    Alcotest.test_case "lowered programs are well formed" `Quick
      test_lowered_well_formed;
    Alcotest.test_case "registry: closure matches interp" `Slow
      test_registry_equivalence;
    Alcotest.test_case "transformed: closure matches interp" `Slow
      test_transformed_equivalence;
    Alcotest.test_case "reductions: closure matches interp" `Slow
      test_reduction_equivalence;
    Alcotest.test_case "mixed storage kinds: closure matches interp" `Quick
      test_mixed_storage_equivalence;
    Alcotest.test_case "guarded nest: closure matches interp" `Slow
      test_guarded_nest_equivalence;
    QCheck_alcotest.to_alcotest prop_synth;
    QCheck_alcotest.to_alcotest prop_dep;
    QCheck_alcotest.to_alcotest prop_nest;
    Alcotest.test_case "seeded stride bug is detected" `Quick
      test_seeded_stride_bug;
    Alcotest.test_case "seeded reduction-init bug is detected" `Quick
      test_seeded_reduction_bug;
    Alcotest.test_case "Env.reset restores and reuses buffers" `Quick
      test_env_reset;
    Alcotest.test_case "dataset: backends agree through the pipeline" `Slow
      test_dataset_backends_agree;
    Alcotest.test_case "dataset: worker-count determinism" `Slow
      test_worker_determinism;
    Alcotest.test_case "cache attributes entries to backends" `Quick
      test_cache_backend_attribution;
    Alcotest.test_case "memo: shared kernels execute once" `Slow
      test_exec_memo_reuse;
    Alcotest.test_case "memo: every execute input is keyed" `Quick
      test_exec_memo_key;
    Alcotest.test_case "memo: cache_clear empties it" `Quick
      test_exec_memo_clear ]
