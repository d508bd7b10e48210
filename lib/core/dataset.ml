(* Experiment samples: one per TSVC kernel that the transform under study
   can vectorize, with features, baseline prediction and "measured" numbers
   from the machine model.

   Robustness: measurements can be repeated ([?repeats]) with the repeat
   median taken after MAD outlier rejection; samples whose measurement is
   unusable (non-finite or non-positive after rejection, or whose build
   task failed under the supervised pool) are *quarantined* into a
   process-wide health ledger — never silently dropped — and the dataset
   is built through [Vpar.Pool.supervised_map] so one poisoned kernel
   cannot take down a registry-wide run. *)

open Vir

(* Wire the shadow-state sanitizer into the pool's join points: [Vpar]
   cannot depend on the execution runtime, so the hook is installed here,
   where both sides are visible.  [Sanitize.verify] is a no-op unless the
   sanitizer is active, so idle cost is one atomic load per barrier. *)
let () =
  Vpar.Pool.set_join_check (fun () ->
      Vexec.Sanitize.verify ~site:"pool-join")

type transform = Llv | Slp

let transform_to_string = function Llv -> "llv" | Slp -> "slp"

type sample = {
  name : string;
  category : Tsvc.Category.t;
  kernel : Kernel.t;
  vk : Vvect.Vinstr.vkernel;
  vf : int;
  raw : float array;  (* scalar body instruction-class counts *)
  norm_raw : float array;  (* counts after the Opt normalization pipeline *)
  rated : float array;  (* block-composition features *)
  extended : float array;  (* rated + derived features (extension) *)
  absint : float array;  (* extended + abstract-interpretation columns *)
  opt : float array;  (* absint of normalized body + ratio/hoist columns *)
  deps : float array;  (* opt + dependence-graph and idiom columns *)
  cert : float array;  (* deps + static safety-certificate columns *)
  vraw : float array;  (* vector body counts (cost-target fits) *)
  exec_backend : string;  (* execution backend that ran the kernel *)
  exec_digest : string;  (* fingerprint of the backend run (Measure.execute) *)
  measured : float;  (* noisy measured speedup: the ground truth *)
  scalar_cycles_iter : float;  (* noisy per-iteration scalar cycles *)
  vector_cycles_block : float;  (* noisy per-block vector cycles *)
  scalar_total : float;  (* total scalar cycles for the full run *)
  vector_total : float;  (* total vectorized cycles for the full run *)
  baseline : float;  (* baseline model's predicted speedup *)
}

let apply_transform transform ~vf k =
  match transform with
  | Llv -> (
      match Vvect.Llv.vectorize ~vf k with Ok vk -> Some vk | Error _ -> None)
  | Slp -> (
      match Vvect.Slp.vectorize ~vf k with Ok vk -> Some vk | Error _ -> None)

(* --- health ledger --------------------------------------------------------
   Every sample that cannot enter the dataset leaves a trace here.  The
   ledger is process-wide (like the sample cache) and deduplicated, so a
   cache hit on a quarantined entry re-reports it without duplicating. *)

type quarantine = {
  q_name : string;  (* kernel *)
  q_machine : string;
  q_transform : string;
  q_reason : string;
}

type health = {
  h_quarantined : quarantine list;  (* oldest first *)
  h_cache_corruptions : int;  (* corrupted cache entries detected + rebuilt *)
  h_repeats_rejected : int;  (* repeat measurements discarded by MAD *)
}

let quarantined : quarantine list ref = ref []
let quarantine_seen : (quarantine, unit) Hashtbl.t = Hashtbl.create 64
let health_mutex = Mutex.create ()
let cache_corruptions = Atomic.make 0
let repeats_rejected = Atomic.make 0

let quarantine q =
  Mutex.lock health_mutex;
  if not (Hashtbl.mem quarantine_seen q) then begin
    Hashtbl.add quarantine_seen q ();
    quarantined := q :: !quarantined
  end;
  Mutex.unlock health_mutex

let health () =
  Mutex.lock health_mutex;
  let qs = List.rev !quarantined in
  Mutex.unlock health_mutex;
  { h_quarantined = qs;
    h_cache_corruptions = Atomic.get cache_corruptions;
    h_repeats_rejected = Atomic.get repeats_rejected }

let health_reset () =
  Mutex.lock health_mutex;
  quarantined := [];
  Hashtbl.reset quarantine_seen;
  Mutex.unlock health_mutex;
  Atomic.set cache_corruptions 0;
  Atomic.set repeats_rejected 0

(* --- robust measurement ---------------------------------------------------
   [repeats <= 1] reproduces the single-shot behaviour bit-for-bit.  With
   k >= 2 repeats the speedup is re-measured under derived seeds, repeats
   outside 3.5 normalized MADs of the median are rejected (and counted),
   and the median of the survivors is used.  Non-finite repeats (injected
   NaN / Inf) are rejected the same way; if nothing survives, the sample
   is quarantined. *)

let usable x = Float.is_finite x && x > 0.0

let mad_partition xs =
  let arr = Array.of_list xs in
  let med = Vstats.Descriptive.median arr in
  let mad =
    Vstats.Descriptive.median (Array.map (fun x -> Float.abs (x -. med)) arr)
  in
  let scale = 1.4826 *. mad in
  if scale <= 1e-12 *. Float.max 1.0 (Float.abs med) then (xs, [])
  else List.partition (fun x -> Float.abs (x -. med) <= 3.5 *. scale) xs

let robust_speedup ~noise_amp ~seed ~repeats ~(machine : Vmachine.Descr.t) ~n
    vk =
  let measure s = Vmachine.Measure.measure ~noise_amp ~seed:s machine ~n vk in
  if repeats <= 1 then
    let m = measure seed in
    if usable m.Vmachine.Measure.speedup then Ok m
    else
      Error
        (Printf.sprintf "unusable measured speedup (%h)"
           m.Vmachine.Measure.speedup)
  else begin
    (* Distinct derived seeds give independent noise (and independent
       fault-injection keys) per repeat; the first repeat keeps the
       original seed so k=1 and the first draw of k>1 agree. *)
    let ms =
      List.init repeats (fun r ->
          measure (if r = 0 then seed else seed + (7919 * r)))
    in
    let speedups = List.map (fun m -> m.Vmachine.Measure.speedup) ms in
    let finite, broken = List.partition usable speedups in
    List.iter (fun _ -> Atomic.incr repeats_rejected) broken;
    match finite with
    | [] -> Error "all repeat measurements unusable (non-finite speedup)"
    | _ ->
        let kept, outliers = mad_partition finite in
        List.iter (fun _ -> Atomic.incr repeats_rejected) outliers;
        let med = Vstats.Descriptive.median (Array.of_list kept) in
        let m0 = List.hd ms in
        Ok { m0 with Vmachine.Measure.speedup = med }
  end

(* --- execution memo ----------------------------------------------------
   An execution digest depends on none of the machine, the transform or
   the noise: [Measure.execute] reads the kernel, n, seed, repeats, the
   backend and the active fault plan (its [sanitize.poison] site).  The
   registry re-measures the same kernels for six (machine, transform)
   pairs plus the typed, apps and cleaned sets, so a cold report pass asks
   for 753 executions of 206 distinct inputs.  The digest is memoized
   under exactly those inputs, next to the sample cache: [cache_clear]
   empties the memo, and with the cache disabled ([kernel_digest = None])
   every execution runs.  Like the sample cache it holds one digest per
   distinct input and never evicts. *)

let exec_memo : (string, string) Vpar.Memo.t = Vpar.Memo.create ()

let execute ~kernel_digest ~backend ~seed ~repeats ~n k =
  let run () =
    (Vmachine.Measure.execute ~backend ~seed ~repeats ~n k)
      .Vmachine.Measure.exec_digest
  in
  match kernel_digest with
  | None -> run ()
  | Some kd ->
      let key =
        Digest.string
          (String.concat "|"
             [ kd;
               string_of_int n;
               string_of_int seed;
               string_of_int repeats;
               Vexec.Backend.to_string backend;
               Vfault.Plan.to_string (Vfault.Inject.active ()) ])
      in
      Vpar.Memo.find_or_compute exec_memo key run

(* --- building one sample -------------------------------------------------- *)

(* What building an entry produced; cached as-is so hits on quarantined
   entries re-report instead of silently vanishing. *)
type build_outcome =
  | Built of sample
  | Not_vectorizable
  | Quarantined of string

let build_one ~kernel_digest ~noise_amp ~seed ~repeats ~backend
    ~(machine : Vmachine.Descr.t) ~transform ~n (e : Tsvc.Registry.entry) =
  let k = e.kernel in
  let vf = Vmachine.Descr.vf_for_kernel machine k in
  if vf < 2 then Not_vectorizable
  else
    match apply_transform transform ~vf k with
    | None -> Not_vectorizable
    | Some vk -> (
        match robust_speedup ~noise_amp ~seed ~repeats ~machine ~n vk with
        | Error reason -> Quarantined reason
        | Ok m ->
            (* Actually execute the scalar kernel on the selected backend.
               The repeats reuse one environment via [Env.reset] and the
               digest is checked for stability across them. *)
            let a = Feature.analyze ~n ~vf k in
            let exec_digest =
              execute ~kernel_digest ~backend ~seed ~repeats ~n k
            in
            let sest = Vmachine.Sched.scalar_estimate machine ~n k in
            let vest = Vmachine.Sched.vector_estimate machine ~n vk in
            (* Independent noise draws for the block-cost targets. *)
            let nf salt =
              Vmachine.Measure.noise_factor ~amp:noise_amp ~seed
                (k.Kernel.name ^ salt) machine.name
            in
            Built
              {
                name = k.Kernel.name;
                category = e.category;
                kernel = k;
                vk;
                vf;
                raw = Lazy.force a.raw;
                norm_raw = Lazy.force a.norm_raw;
                rated = Lazy.force a.rated;
                extended = Lazy.force a.extended;
                absint = Lazy.force a.absint;
                opt = Lazy.force a.opt;
                deps = Lazy.force a.deps;
                cert = Lazy.force a.cert;
                vraw = Feature.vcounts vk;
                exec_backend = Vexec.Backend.to_string backend;
                exec_digest;
                measured = m.speedup;
                scalar_cycles_iter = sest.Vmachine.Sched.cycles *. nf "#s";
                vector_cycles_block = vest.Vmachine.Sched.cycles *. nf "#v";
                scalar_total = m.scalar_cycles;
                vector_total = m.scalar_cycles /. m.speedup;
                baseline = Baseline.predicted_speedup vk;
              })

(* --- memoized build ------------------------------------------------------
   Building one sample is the pipeline's unit of repeated work: vectorize,
   run the machine model, extract features.  The experiment drivers rebuild
   the same (kernel, machine, transform, config) combinations up to ~20x
   (F1..F5, T2 and most ablations share NEON/LLV alone), so built samples
   are kept in a content-keyed cache.  Samples are immutable, which makes
   sharing them safe.  The key digests the kernel *content* (not just its
   name), the whole machine description ([Vmachine.Config.to_string]: every
   field and both op tables), the transform, the full config (n,
   noise_amp, seed, repeats) and the active fault plan — a plan change
   must never serve samples built under a different plan.  The VF is
   derived from (machine, kernel) and therefore implied by the key. *)

type cache_stats = Vpar.Memo.stats = { hits : int; misses : int; entries : int }

let cache : (string, build_outcome) Vpar.Memo.t = Vpar.Memo.create ()
let cache_enabled = Atomic.make true

let set_cache_enabled b = Atomic.set cache_enabled b

let cache_clear () =
  Vpar.Memo.clear cache;
  Vpar.Memo.clear exec_memo

let cache_stats () = Vpar.Memo.stats cache
let exec_stats () = Vpar.Memo.stats exec_memo

(* [machine_digest] digests the whole machine description, computed once
   per [build]: the op tables are closures, but their domain is finite and
   [Vmachine.Config.to_string] prints them in full. *)
let sample_key ~kernel_digest ~noise_amp ~seed ~repeats ~backend
    ~machine_digest ~transform ~n (e : Tsvc.Registry.entry) =
  Digest.string
    (String.concat "|"
       [ kernel_digest;
         Tsvc.Category.to_string e.category;
         machine_digest;
         transform_to_string transform;
         string_of_int n;
         string_of_float noise_amp;
         string_of_int seed;
         string_of_int repeats;
         (* Backend id: switching backends must never serve samples whose
            execution digest another backend produced. *)
         "exec:" ^ Vexec.Backend.to_string backend;
         Vfault.Plan.to_string (Vfault.Inject.active ()) ])

let record_outcome ~machine ~transform name = function
  | Quarantined reason ->
      quarantine
        { q_name = name;
          q_machine = machine;
          q_transform = transform_to_string transform;
          q_reason = reason }
  | Built _ | Not_vectorizable -> ()

let build_one_cached ~noise_amp ~seed ~repeats ~backend ~machine_digest
    ~(machine : Vmachine.Descr.t) ~transform ~n (e : Tsvc.Registry.entry) =
  let kname = e.Tsvc.Registry.kernel.Kernel.name in
  let outcome =
    if not (Atomic.get cache_enabled) then
      build_one ~kernel_digest:None ~noise_amp ~seed ~repeats ~backend ~machine
        ~transform ~n e
    else begin
      let kernel_digest =
        Digest.string (Marshal.to_string e.Tsvc.Registry.kernel [])
      in
      let key =
        sample_key ~kernel_digest ~noise_amp ~seed ~repeats ~backend
          ~machine_digest ~transform ~n e
      in
      (* Simulated storage corruption: the entry fails its checksum, is
         evicted, and the sample is rebuilt from scratch. *)
      if Vpar.Memo.mem cache key
         && Vfault.Inject.cache_corrupt ~key:(Digest.to_hex key)
      then begin
        Atomic.incr cache_corruptions;
        Vpar.Memo.remove cache key
      end;
      Vpar.Memo.find_or_compute cache key (fun () ->
          build_one ~kernel_digest:(Some kernel_digest) ~noise_amp ~seed
            ~repeats ~backend ~machine ~transform ~n e)
    end
  in
  record_outcome ~machine:machine.name ~transform kname outcome;
  outcome

let default_timeout = 0.5

let build ?(noise_amp = Vmachine.Measure.default_noise) ?(seed = 1)
    ?(repeats = 1) ?backend ?pool
    ~(machine : Vmachine.Descr.t) ~transform ~n
    (entries : Tsvc.Registry.entry list) =
  let backend =
    match backend with Some b -> b | None -> Vexec.Backend.default ()
  in
  let machine_digest = Digest.string (Vmachine.Config.to_string machine) in
  let arr = Array.of_list entries in
  (* Content-derived task keys: fault decisions follow the kernel, not the
     position of the task in the queue or the worker running it. *)
  let task_key i =
    arr.(i).Tsvc.Registry.kernel.Kernel.name
    ^ "@" ^ machine.name ^ "/" ^ transform_to_string transform
  in
  let results =
    Vpar.Pool.supervised_map ?pool ~timeout_s:default_timeout ~task_key
      (build_one_cached ~noise_amp ~seed ~repeats ~backend ~machine_digest
         ~machine ~transform ~n)
      entries
  in
  List.concat
    (List.mapi
       (fun i result ->
         match result with
         | Ok (Built s) -> [ s ]
         | Ok Not_vectorizable -> []
         | Ok (Quarantined _) -> [] (* recorded by build_one_cached *)
         | Error (f : Vpar.Pool.failure) ->
             quarantine
               { q_name = arr.(i).Tsvc.Registry.kernel.Kernel.name;
                 q_machine = machine.name;
                 q_transform = transform_to_string transform;
                 q_reason =
                   Printf.sprintf "build task failed after %d attempt(s): %s"
                     f.f_attempts f.f_error };
             [])
       results)

(* Which backend produced the cached samples currently live in the cache:
   [(backend, count)] sorted by backend name.  Negative entries
   (non-vectorizable, quarantined) carry no execution and are not counted. *)
let cache_backends () =
  Vpar.Memo.fold
    (fun _ outcome counts ->
      match outcome with
      | Built { exec_backend = b; _ } ->
          let c = Option.value ~default:0 (List.assoc_opt b counts) in
          (b, c + 1) :: List.remove_assoc b counts
      | Not_vectorizable | Quarantined _ -> counts)
    cache []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let measured_array samples = Array.of_list (List.map (fun s -> s.measured) samples)
let baseline_array samples = Array.of_list (List.map (fun s -> s.baseline) samples)
