(* Tests for the set-associative cache simulator and the trace-driven
   validation layer. *)

module C = Vmachine.Cache
module T = Vmachine.Tracesim
module Mem = Vmachine.Memmodel

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small = { C.size_bytes = 1024; ways = 2; line_bytes = 64 }
(* 1KB, 2-way, 64B lines: 16 lines, 8 sets. *)

let test_geometry_validation () =
  Alcotest.check_raises "bad ways"
    (Invalid_argument "Cache.create: size/ways/line mismatch") (fun () ->
      ignore (C.create { C.size_bytes = 128; ways = 3; line_bytes = 64 }));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Cache.create: non-positive parameter") (fun () ->
      ignore (C.create { small with C.size_bytes = 0 }))

let test_cold_miss_then_hit () =
  let c = C.create small in
  check "first access misses" false (C.access c 0);
  check "same line hits" true (C.access c 32);
  check "next line misses" false (C.access c 64);
  check_int "two misses" 2 (C.misses c);
  check_int "three accesses" 3 (C.accesses c)

let test_lru_eviction () =
  let c = C.create small in
  (* Three lines mapping to the same set (stride = sets*line = 8*64). *)
  let a0 = 0 and a1 = 8 * 64 and a2 = 16 * 64 in
  ignore (C.access c a0);
  ignore (C.access c a1);
  (* Set is full (2 ways); touching a0 refreshes it, then a2 evicts a1. *)
  check "a0 still resident" true (C.access c a0);
  check "a2 misses" false (C.access c a2);
  check "a1 was evicted (LRU)" false (C.access c a1);
  check "a0 evicted by a1's reload" false (C.access c a0)

let test_working_set_fits () =
  let c = C.create small in
  (* 1KB working set in a 1KB cache: second sweep hits everywhere. *)
  for i = 0 to 15 do
    ignore (C.access c (i * 64))
  done;
  C.reset_stats c;
  for i = 0 to 15 do
    ignore (C.access c (i * 64))
  done;
  check_int "warm sweep: zero misses" 0 (C.misses c)

let test_working_set_thrashes () =
  let c = C.create small in
  (* 2KB working set in 1KB: LRU sweep thrashes completely. *)
  for _pass = 1 to 2 do
    for i = 0 to 31 do
      ignore (C.access c (i * 64))
    done
  done;
  check "second pass still misses" true
    (float_of_int (C.misses c) > 0.9 *. float_of_int (C.accesses c))

let test_hierarchy_filtering () =
  let h =
    C.hierarchy
      [ { C.size_bytes = 128; ways = 2; line_bytes = 64 };
        { C.size_bytes = 1024; ways = 2; line_bytes = 64 } ]
  in
  (* 4 lines: miss everywhere first (level index 2 = memory). *)
  check_int "cold goes to memory" 2 (C.hierarchy_access h 0);
  check_int "l1 hit" 0 (C.hierarchy_access h 0);
  (* Fill L1 (2 lines) beyond capacity; older lines remain in L2. *)
  ignore (C.hierarchy_access h 64);
  ignore (C.hierarchy_access h 128);
  ignore (C.hierarchy_access h 192);
  check_int "evicted from l1, still in l2" 1 (C.hierarchy_access h 0)

(* Reference LRU: per set, the resident tags most recent first. *)
let reference_lru (cfg : C.config) =
  let sets = cfg.size_bytes / cfg.line_bytes / cfg.ways in
  let resident = Array.make sets [] in
  let accesses = ref 0 and misses = ref 0 in
  let access addr =
    incr accesses;
    let line = addr / cfg.line_bytes in
    let set = line mod sets and tag = line / sets in
    let hit = List.mem tag resident.(set) in
    let rest = List.filter (fun t -> t <> tag) resident.(set) in
    if not hit then incr misses;
    resident.(set) <-
      tag :: (if hit then rest else List.filteri (fun i _ -> i < cfg.ways - 1) rest);
    hit
  in
  (access, accesses, misses)

(* Random geometries, half of them with a power-of-two line size and set
   count, half arbitrary, and address streams drawn from about twice the
   cache's lines so that hits, misses and evictions all occur.  A second
   cache takes the same stream through [access_way] and [rehit] the way
   [Tracesim.simulate] does: each of four slots remembers the line it
   touched last and the way [access_way] reported for it, and an address in
   that line is tried with [rehit] first. *)
let prop_matches_reference_lru =
  QCheck.Test.make ~count:300 ~name:"flat cache matches a reference LRU"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick_pow2 = Random.State.bool rng in
      let dim ~max_log ~max =
        if pick_pow2 then 1 lsl Random.State.int rng (max_log + 1)
        else 1 + Random.State.int rng max
      in
      let line_bytes = dim ~max_log:7 ~max:100 in
      let sets = dim ~max_log:6 ~max:50 in
      let ways = 1 + Random.State.int rng 8 in
      let cfg = { C.size_bytes = line_bytes * ways * sets; ways; line_bytes } in
      let c = C.create cfg and cw = C.create cfg in
      let ref_access, ref_accesses, ref_misses = reference_lru cfg in
      let memo_line = Array.make 4 (-1) and memo_way = Array.make 4 (-1) in
      let way_access addr =
        let slot = Random.State.int rng 4 in
        let line = addr / line_bytes in
        (line = memo_line.(slot) && C.rehit cw ~way:memo_way.(slot) ~line)
        ||
        let w = C.access_way cw addr in
        let way = if w >= 0 then w else lnot w in
        if way / ways <> line mod sets then
          QCheck.Test.fail_reportf "addr %d: way %d is outside set %d" addr way
            (line mod sets);
        memo_line.(slot) <- line;
        memo_way.(slot) <- way;
        w >= 0
      in
      let span = 2 * sets * ways + 1 in
      for i = 1 to 1 + Random.State.int rng 600 do
        let addr =
          (Random.State.int rng span * line_bytes) + Random.State.int rng line_bytes
        in
        let want = ref_access addr in
        let report what =
          QCheck.Test.fail_reportf "line %d, %d-way, %d sets: %s %d (addr %d) %s"
            line_bytes ways sets what i addr
            (if want then "should hit" else "should miss")
        in
        if C.access c addr <> want then report "access";
        if way_access addr <> want then report "access_way/rehit"
      done;
      C.accesses c = !ref_accesses
      && C.misses c = !ref_misses
      && C.accesses cw = !ref_accesses
      && C.misses cw = !ref_misses)

(* [rehit] on a way that does not hold the line, or on no way at all,
   changes nothing. *)
let test_rehit_misses_change_nothing () =
  let c = C.create small in
  let w = C.access_way c 0 in
  check "cold access misses" true (w < 0);
  let way = lnot w in
  check "rehit of the installed line" true (C.rehit c ~way ~line:0);
  check "other line" false (C.rehit c ~way ~line:8);
  check "no such way" false (C.rehit c ~way:(-1) ~line:0);
  check "past the last way" false (C.rehit c ~way:16 ~line:0);
  check "an invalid way's tag" false (C.rehit c ~way:(way + 1) ~line:(-1));
  check_int "two accesses" 2 (C.accesses c);
  check_int "one miss" 1 (C.misses c);
  (* Lines 0 and 8 share set 0; 16 evicts the older of them, line 0. *)
  ignore (C.access_way c (8 * 64));
  ignore (C.access_way c (16 * 64));
  check "evicted line" false (C.rehit c ~way ~line:0);
  check "the line that took its way" true (C.rehit c ~way ~line:16)

let test_negative_address () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Cache.access: negative address") (fun () ->
      ignore (C.access (C.create small) (-1)))

let test_stats_reset () =
  let c = C.create small in
  ignore (C.access c 0);
  C.reset_stats c;
  check_int "reset accesses" 0 (C.accesses c);
  check_int "reset misses" 0 (C.misses c)

(* --- tracesim ------------------------------------------------------------- *)

let mem = Vmachine.Machines.neon_a57.Vmachine.Descr.mem

let kern name = (Tsvc.Registry.find_exn name).kernel

(* The layout is indexed by the execution tier's array slots. *)
let test_layout_disjoint () =
  let k = kern "s000" in
  let l = T.layout ~n:100 ~line_bytes:64 k in
  let slot = Vexec.Program.array_slot k in
  let a0 = T.address l ~slot:(slot "a") ~idx:0 in
  let b0 = T.address l ~slot:(slot "b") ~idx:0 in
  check "arrays do not overlap" true (abs (a0 - b0) >= 100 * 4);
  check_int "element stride" 4 (T.address l ~slot:(slot "a") ~idx:1 - a0)

(* Each array, found through the execution tier's slots, strides by its own
   element size over a byte range of its own.  vag_f64 mixes 8-byte data
   with a 4-byte index array, so a layout numbered apart from the slots
   shows. *)
let test_layout_mixed_sizes () =
  let k =
    (List.find
       (fun (e : Tsvc.Registry.entry) -> e.kernel.Vir.Kernel.name = "vag_f64")
       Tsvc.Registry.typed_extension)
      .kernel
  in
  let n = 100 in
  let l = T.layout ~n ~line_bytes:64 k in
  let slot = Vexec.Program.array_slot k in
  let sizes =
    List.map (fun (d : Vir.Kernel.array_decl) -> Vir.Types.size_bytes d.arr_ty) k.arrays
  in
  check "element sizes differ" true (List.length (List.sort_uniq compare sizes) > 1);
  let ranges =
    List.map2
      (fun (d : Vir.Kernel.array_decl) eb ->
        let lo = T.address l ~slot:(slot d.arr_name) ~idx:0 in
        check_int (d.arr_name ^ " stride") eb
          (T.address l ~slot:(slot d.arr_name) ~idx:1 - lo);
        (lo, lo + (Vir.Kernel.extent_elems ~n d.arr_extent * eb)))
      k.arrays sizes
  in
  List.iteri
    (fun i (lo, hi) ->
      List.iteri
        (fun j (lo', hi') ->
          if i < j then check "arrays do not overlap" true (hi <= lo' || hi' <= lo))
        ranges)
    ranges

let test_layout_unknown_array () =
  let k = kern "s000" in
  let l = T.layout ~n:100 ~line_bytes:64 k in
  let past = List.length k.Vir.Kernel.arrays in
  Alcotest.check_raises "unknown"
    (Invalid_argument
       (Printf.sprintf "Tracesim.address: unknown array slot %d" past))
    (fun () -> ignore (T.address l ~slot:past ~idx:0));
  Alcotest.check_raises "negative"
    (Invalid_argument "Tracesim.address: unknown array slot -1") (fun () ->
      ignore (T.address l ~slot:(-1) ~idx:0))

let test_streaming_lives_in_l2 () =
  (* 32000-element f32 streams: beyond L1, inside the 2MB L2. *)
  let s = T.simulate mem ~n:32000 (kern "s000") in
  check "dominant level L2" true (T.dominant_level s = Mem.L2);
  check "no last-level misses once warm" true (s.T.bytes_moved_per_elem < 1.0)

let test_small_footprint_lives_in_l1 () =
  let s = T.simulate mem ~n:1000 (kern "s000") in
  check "dominant level L1" true (T.dominant_level s = Mem.L1)

let test_huge_footprint_hits_dram () =
  let s = T.simulate mem ~n:2_000_000 (kern "va") in
  check "dominant level DRAM" true (T.dominant_level s = Mem.Dram);
  (* A streaming copy moves about one line per 16 elements per array. *)
  check "bytes per element near 8" true
    (s.T.bytes_moved_per_elem > 4.0 && s.T.bytes_moved_per_elem < 16.0)

let test_gather_misses_l1 () =
  let s = T.simulate mem ~n:32000 (kern "vag") in
  let l1_rate =
    match s.T.per_level with
    | (Mem.L1, accs, misses) :: _ -> float_of_int misses /. float_of_int accs
    | _ -> 0.0
  in
  check "random gather thrashes L1" true (l1_rate > 0.3)

(* 1 KiB L1, 4 KiB L2 and a 12-set L3: small enough that a measured pass at
   n = 2000 reaches every level and DRAM, which the real machines' caches do
   not. *)
let tiny =
  { mem with Vmachine.Descr.l1_bytes = 1024; l2_bytes = 4096; l3_bytes = 12288 }

(* A plain replay of [T.simulate] on [backend]'s trace, kept apart from
   it: every traced access filters down the levels through [Cache.access]
   until one hits, with its own access and DRAM counts. *)
let replay ~backend (m : Vmachine.Descr.mem) ~n (k : Vir.Kernel.t) =
  let cfg size_bytes ways = { C.size_bytes; ways; line_bytes = m.line_bytes } in
  let levels =
    List.map C.create
      ([ cfg m.l1_bytes 4; cfg m.l2_bytes 8 ]
      @ if m.l3_bytes > 0 then [ cfg m.l3_bytes 16 ] else [])
  in
  let l = T.layout ~n ~line_bytes:m.line_bytes k in
  let total = ref 0 and dram = ref 0 in
  let trace slot idx _write =
    incr total;
    let addr = T.address l ~slot ~idx in
    if not (List.exists (fun c -> C.access c addr) levels) then incr dram
  in
  let env = Vinterp.Env.create ~seed:42 ~n k in
  let prepared = Vexec.Backend.prepare ~trace backend k in
  ignore (Vexec.Backend.run_in prepared env);
  List.iter C.reset_stats levels;
  total := 0;
  dram := 0;
  ignore (Vexec.Backend.run_in prepared env);
  let last = List.nth levels (List.length levels - 1) in
  {
    T.total_accesses = !total;
    per_level =
      List.mapi
        (fun i c ->
          ((match i with 0 -> Mem.L1 | 1 -> Mem.L2 | _ -> Mem.L3),
           C.accesses c, C.misses c))
        levels;
    dram_accesses = !dram;
    bytes_moved_per_elem =
      float_of_int (C.misses last * m.line_bytes)
      /. float_of_int (max 1 (Vir.Kernel.total_iterations ~n k));
  }

(* Interpreter and closure traces must give the same stats on every
   kernel; "simulate matches a plain replay" ties the replay to
   [T.simulate]. *)
let test_backends_agree () =
  let kernels =
    List.map (fun (e : Tsvc.Registry.entry) -> e.kernel)
      (Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries)
  in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun (k : Vir.Kernel.t) ->
          check
            (Printf.sprintf "%s on %s: interp = closure" k.name name)
            true
            (replay ~backend:Vexec.Backend.Interp m ~n:2000 k
            = replay ~backend:Vexec.Backend.Closure m ~n:2000 k))
        kernels)
    [ ("neon-a57", mem);
      ("xeon-avx2", Vmachine.Machines.xeon_avx2.Vmachine.Descr.mem);
      ("tiny", tiny) ]

(* The per-slot L1 memo of [T.simulate] must not change a count: every TSVC,
   typed and apps kernel, on both machines, on [tiny], and on [tiny] with a
   single-set L1 of four lines.  There a kernel with five or more streams
   evicts a slot's line before the slot's next access to it, the case the
   memo's tag check is for; on these kernels at this n, the larger L1s
   never do. *)
let test_simulate_matches_replay () =
  let kernels =
    List.map (fun (e : Tsvc.Registry.entry) -> e.kernel)
      (Tsvc.Registry.all @ Tsvc.Registry.typed_extension
     @ Vapps.Registry.as_tsvc_entries)
  in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun (k : Vir.Kernel.t) ->
          check
            (Printf.sprintf "%s on %s: simulate = replay" k.name name)
            true
            (T.simulate m ~n:2000 k
            = replay ~backend:(Vexec.Backend.default ()) m ~n:2000 k))
        kernels)
    [ ("neon-a57", mem);
      ("xeon-avx2", Vmachine.Machines.xeon_avx2.Vmachine.Descr.mem);
      ("tiny", tiny);
      ("tiny, one-set L1", { tiny with Vmachine.Descr.l1_bytes = 256 }) ]

let test_agreement_whole_suite () =
  (* The headline validation: analytic level within one level of the
     simulated dominant level for every kernel (at a reduced size to keep
     the test fast). *)
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      let k = e.kernel in
      let s = T.simulate mem ~n:8000 k in
      let analytic =
        Mem.level_of mem ~footprint_bytes:(Vir.Kernel.footprint_bytes ~n:8000 k)
      in
      check
        (Printf.sprintf "%s agreement" k.Vir.Kernel.name)
        true
        (T.agrees ~analytic ~simulated:(T.dominant_level s)))
    Tsvc.Registry.all

let tests =
  [ Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "working set fits" `Quick test_working_set_fits;
    Alcotest.test_case "working set thrashes" `Quick test_working_set_thrashes;
    Alcotest.test_case "hierarchy filtering" `Quick test_hierarchy_filtering;
    Alcotest.test_case "stats reset" `Quick test_stats_reset;
    Alcotest.test_case "negative address" `Quick test_negative_address;
    QCheck_alcotest.to_alcotest prop_matches_reference_lru;
    Alcotest.test_case "rehit misses change nothing" `Quick
      test_rehit_misses_change_nothing;
    Alcotest.test_case "layout disjoint" `Quick test_layout_disjoint;
    Alcotest.test_case "layout mixed sizes" `Quick test_layout_mixed_sizes;
    Alcotest.test_case "layout unknown" `Quick test_layout_unknown_array;
    Alcotest.test_case "streaming in L2" `Quick test_streaming_lives_in_l2;
    Alcotest.test_case "small in L1" `Quick test_small_footprint_lives_in_l1;
    Alcotest.test_case "huge in DRAM" `Slow test_huge_footprint_hits_dram;
    Alcotest.test_case "gather thrashes L1" `Quick test_gather_misses_l1;
    Alcotest.test_case "interp and closure traces agree" `Slow
      test_backends_agree;
    Alcotest.test_case "simulate matches a plain replay" `Slow
      test_simulate_matches_replay;
    Alcotest.test_case "suite agreement" `Slow test_agreement_whole_suite ]
