(* The build-cold workload: `Dataset.build` of the whole TSVC registry at
   the paper's F1 configuration, each op starting with the sample cache and
   the interpreter's master buffers empty. *)

open Costmodel

let machine = Vmachine.Machines.neon_a57
let n = Tsvc.Registry.default_n
let seed = 1
let noise_amp = Vmachine.Measure.default_noise
let expected_samples = 116

let build () =
  Dataset.build ~noise_amp ~seed ~machine ~transform:Dataset.Llv ~n
    Tsvc.Registry.all

let digests samples =
  List.map (fun (s : Dataset.sample) -> (s.Dataset.name, s.Dataset.exec_digest))
    samples

(* The oracle: the reference interpreter's digest of every built kernel,
   computed once per invocation and never timed. *)
let interp_digests samples =
  Vpar.Pool.parallel_map
    (fun (s : Dataset.sample) ->
      ( s.Dataset.name,
        (Vmachine.Measure.execute ~backend:Vexec.Backend.Interp ~seed ~n
           s.Dataset.kernel)
          .Vmachine.Measure.exec_digest ))
    samples

let run ~seconds ~setups =
  Layers.cold_reset ();
  let reference = build () in
  let ref_digests = digests reference in
  let latencies = ref [] in
  let matching = ref 0 in
  let ops = ref 0 in
  let t_start = Common.now () in
  let op_elapsed () = Common.now () -. t_start -. setups.Common.paused in
  while op_elapsed () < seconds || !ops < 11 do
    if Common.due setups ~op_elapsed:(op_elapsed ()) then Common.take setups;
    Layers.cold_reset ();
    let t0 = Common.now () in
    let samples = build () in
    latencies := (Common.now () -. t0) :: !latencies;
    incr ops;
    if List.length samples = expected_samples && digests samples = ref_digests
    then incr matching
  done;
  let elapsed = op_elapsed () in
  let rss = Common.peak_rss_mb None in
  let setup_s = Common.setup_median setups in
  let oracle = interp_digests reference in
  let oracle_ok =
    List.length reference = expected_samples && oracle = ref_digests
  in
  let ok = if oracle_ok then !matching else 0 in
  let latencies = Array.of_list (List.rev !latencies) in
  { Common.attempted = !ops;
    failed = !ops - ok;
    correct = ok = !ops;
    metrics = Common.end_to_end ~setup_s ~rss_mb:rss ~ok ~latencies ~elapsed;
    notes =
      [ Printf.sprintf
          "build-cold: %d cold builds of %d samples after one warm-up build; \
           interp oracle %s"
          !ops expected_samples
          (if oracle_ok then "matches" else "MISMATCH");
        Common.tail_note latencies ] }

(* --- traced replay ----------------------------------------------------------

   [replay_entry] makes the public calls `Dataset.build_one` makes for one
   registry entry, in its order, each in a span, and assembles the same
   sample.  The traced run checks the replayed samples against
   `Dataset.build`'s, so the layer split cannot drift from the build. *)

let span = Spans.span

let replay_entry (e : Tsvc.Registry.entry) =
  let k = e.Tsvc.Registry.kernel in
  let vf = Vmachine.Descr.vf_for_kernel machine k in
  if vf < 2 then None
  else
    match
      span "vect.transform" (fun () -> Dataset.apply_transform Dataset.Llv ~vf k)
    with
    | None -> None
    | Some vk ->
        let m =
          span "machine.measure" (fun () ->
              Vmachine.Measure.measure ~noise_amp ~seed machine ~n vk)
        in
        ignore (span "analysis.certify" (fun () -> Vanalysis.Cert.certify ~vf k));
        let ex =
          span "exec.execute" (fun () ->
              Vmachine.Measure.execute ~seed ~repeats:1 ~n k)
        in
        let sest =
          span "machine.sched" (fun () ->
              Vmachine.Sched.scalar_estimate machine ~n k)
        in
        let vest =
          span "machine.sched" (fun () ->
              Vmachine.Sched.vector_estimate machine ~n vk)
        in
        let nf salt =
          Vmachine.Measure.noise_factor ~amp:noise_amp ~seed
            (k.Vir.Kernel.name ^ salt) machine.Vmachine.Descr.name
        in
        let feature kind f = span ("core.feature." ^ kind) f in
        let raw = feature "counts" (fun () -> Feature.counts k) in
        let norm_raw =
          feature "norm_raw" (fun () ->
              Feature.counts (Vanalysis.Opt.normalize k))
        in
        let rated = feature "rated" (fun () -> Feature.rated k) in
        let extended = feature "extended" (fun () -> Feature.extended k) in
        let absint = feature "absint" (fun () -> Feature.absint ~n ~vf k) in
        let opt = feature "opt" (fun () -> Feature.opt ~n ~vf k) in
        let deps = feature "deps" (fun () -> Feature.deps ~n ~vf k) in
        let cert = feature "cert" (fun () -> Feature.cert ~n ~vf k) in
        let vraw = feature "vcounts" (fun () -> Feature.vcounts vk) in
        let baseline =
          span "core.baseline" (fun () -> Baseline.predicted_speedup vk)
        in
        let speedup = m.Vmachine.Measure.speedup in
        Some
          { Dataset.name = k.Vir.Kernel.name;
            category = e.Tsvc.Registry.category;
            kernel = k;
            vk;
            vf;
            raw;
            norm_raw;
            rated;
            extended;
            absint;
            opt;
            deps;
            cert;
            vraw;
            exec_backend = Vexec.Backend.to_string (Vexec.Backend.default ());
            exec_digest = ex.Vmachine.Measure.exec_digest;
            measured = speedup;
            scalar_cycles_iter = sest.Vmachine.Sched.cycles *. nf "#s";
            vector_cycles_block = vest.Vmachine.Sched.cycles *. nf "#v";
            scalar_total = m.Vmachine.Measure.scalar_cycles;
            vector_total = m.Vmachine.Measure.scalar_cycles /. speedup;
            baseline }

let replay () =
  span "build.op" (fun () ->
      List.filter_map
        (fun e -> span "build.entry" (fun () -> replay_entry e))
        Tsvc.Registry.all)

(* Everything a sample carries except the kernel IR, for comparison. *)
let fingerprint (s : Dataset.sample) =
  ( s.Dataset.name, s.vf,
    (s.raw, s.norm_raw, s.rated, s.extended, s.absint, s.opt, s.deps, s.cert,
     s.vraw),
    (s.exec_backend, s.exec_digest),
    (s.measured, s.scalar_cycles_iter, s.vector_cycles_block, s.scalar_total,
     s.vector_total, s.baseline) )

let same_samples a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> compare (fingerprint x) (fingerprint y) = 0) a b

(* `Measure.execute` split into its own public calls, per built sample:
   environment set-up, lowering, the run and the digest. *)
let split_exec (s : Dataset.sample) =
  let k = s.Dataset.kernel in
  let backend = Vexec.Backend.default () in
  let prepared = span "exec.prepare" (fun () -> Vexec.Backend.prepare backend k) in
  let readonly = Vexec.Effects.readonly (Vexec.Effects.of_kernel k) in
  let env =
    span "interp.env_init" (fun () -> Vinterp.Env.create ~seed ~readonly ~n k)
  in
  let digest =
    match span "exec.run" (fun () -> Vexec.Backend.run_in prepared env) with
    | reductions ->
        span "exec.digest" (fun () -> Vexec.Backend.digest env reductions)
    | exception ((Vinterp.Env.Out_of_bounds _ | Invalid_argument _) as e) ->
        "trap:" ^ Printexc.to_string e
  in
  String.equal digest s.Dataset.exec_digest

let traced_replays = 3

let run_traced () =
  Layers.cold_reset ();
  ignore (build ());
  (* Untraced builds on the pool: the reference samples and the counters. *)
  let par0 = Vpar.Pool.stats () in
  let gc0 = Layers.gc_mark () in
  let builds =
    List.init 3 (fun _ ->
        Layers.cold_reset ();
        let samples = build () in
        (samples, Layers.cache_counts ()))
  in
  let gc = Layers.gc_per_op gc0 ~ops:3 in
  let par = Layers.par_counts par0 in
  let reference, counts = List.nth builds 2 in
  let counts_repeat = List.for_all (fun (_, c) -> c = counts) builds in
  (* Sequential replays, alternating spans off and on. *)
  let times_off = ref [] and times_on = ref [] and faithful = ref true in
  for i = 1 to 2 * traced_replays do
    let traced = i mod 2 = 0 in
    Layers.cold_reset ();
    Spans.set_op i;
    Spans.enabled := traced;
    let t0 = Common.now () in
    let samples = replay () in
    let dt = Common.now () -. t0 in
    Spans.enabled := false;
    if traced then times_on := dt :: !times_on else times_off := dt :: !times_off;
    if not (same_samples samples reference) then faithful := false
  done;
  Layers.cold_reset ();
  Spans.set_op (2 * traced_replays + 1);
  Spans.enabled := true;
  let split_ok = span "exec.split" (fun () -> List.for_all split_exec reference) in
  Spans.enabled := false;
  let spans = Spans.all () in
  let self = Spans.per_op_self_medians spans in
  let layer_names =
    [ "exec.execute"; "exec.prepare"; "exec.run"; "exec.digest";
      "interp.env_init"; "analysis.certify"; "vect.transform";
      "machine.measure"; "machine.sched"; "core.baseline" ]
    @ List.map (fun k -> "core.feature." ^ k) Layers.feature_kinds
  in
  let med l = Common.median (Array.of_list l) in
  let overhead = med !times_on -. med !times_off in
  let values =
    List.map (fun name -> (name ^ "_s", self name)) layer_names
    @ counts @ par @ gc
    @ [ ("trace.overhead_ms", 1000.0 *. overhead) ]
  in
  let attempted = 3 + (2 * traced_replays) in
  let correct =
    !faithful && split_ok && counts_repeat
    && List.length reference = expected_samples
  in
  ( { Common.attempted;
      failed = (if correct then 0 else attempted);
      correct;
      metrics = Layers.complete values;
      notes =
        [ Printf.sprintf
            "build-cold replay: %d untraced %.4f s, %d traced %.4f s (median, \
             sequential); pooled build %d samples"
            traced_replays (med !times_off) traced_replays (med !times_on)
            (List.length reference);
          Printf.sprintf "replay fidelity: samples %s, exec split digests %s, \
                          counters %s"
            (if !faithful then "identical" else "DIFFER")
            (if split_ok then "identical" else "DIFFER")
            (if counts_repeat then "repeat" else "DIFFER") ] },
    spans )
