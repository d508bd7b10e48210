(* "Measurement": total cycle counts for a full kernel execution (vector main
   loop + scalar epilogue + one-off setup), with a small deterministic
   perturbation standing in for run-to-run hardware noise.  These numbers
   play the role of the paper's hardware measurements. *)

open Vir

let default_noise = 0.03

(* Deterministic noise factor in [1 - amp, 1 + amp], keyed on kernel,
   machine and seed. *)
let noise_factor ~amp ~seed name machine =
  let h = ref (seed * 0x45d9f3b) in
  String.iter
    (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land max_int)
    (name ^ "@" ^ machine);
  let u = float_of_int (!h mod 10007) /. 10007.0 in
  1.0 +. (amp *. ((2.0 *. u) -. 1.0))

let total_scalar_cycles (d : Descr.t) ~n (k : Kernel.t) =
  let est = Sched.scalar_estimate d ~n k in
  let iters = float_of_int (Kernel.total_iterations ~n k) in
  est.Sched.cycles *. iters

let total_vector_cycles (d : Descr.t) ~n (vk : Vvect.Vinstr.vkernel) =
  let k = vk.scalar in
  let inner = Kernel.innermost k in
  let inner_iters = Kernel.iterations ~n inner in
  let outer_instances =
    let total = Kernel.total_iterations ~n k in
    if inner_iters = 0 then 0 else total / inner_iters
  in
  let span = vk.vf * vk.ic in
  let blocks = inner_iters / span in
  let tail = inner_iters mod span in
  let vest = Sched.vector_estimate d ~n vk in
  let sest = Sched.scalar_estimate d ~n k in
  float_of_int outer_instances
  *. ((float_of_int blocks *. vest.Sched.cycles)
     +. (float_of_int tail *. sest.Sched.cycles)
     +. d.vec_setup_cycles)

type measurement = {
  scalar_cycles : float;
  vector_cycles : float;
  speedup : float;  (* noisy, the "hardware" ground truth *)
  speedup_clean : float;  (* noise-free model output *)
}

(* --- backend execution ----------------------------------------------------
   Actually *run* the scalar kernel on the selected execution backend and
   fingerprint what it computed.  The digest goes into the sample (and its
   cache key), so cached samples are attributable to the backend that built
   them, and repeat runs over reused buffers are checked for determinism. *)

type execution = { exec_digest : string (* "trap:..." when the kernel traps *) }

let execute ?backend ?(seed = 42) ?(repeats = 1) ~n (k : Kernel.t) =
  let backend =
    match backend with Some b -> b | None -> Vexec.Backend.default ()
  in
  let prepared = Vexec.Backend.prepare backend k in
  (* Ownership of the working set comes from the kernel's effect license:
     arrays the summary proves unwritten are [Frozen] (they alias the
     shared initialization masters instead of being copied per sample),
     possibly-written arrays are [Owned].  The summary is the sound
     recursive-walk baseline. *)
  let readonly = Vexec.Effects.readonly (Vexec.Effects.of_kernel k) in
  let env = Vinterp.Env.create ~seed ~readonly ~n k in
  (* Shadow any master this env just created, before the run can touch
     it.  Record-only: a full pre-run verify would double the sanitizer's
     hot-path cost for attribution the previous execute's post-run verify
     already provides. *)
  Vexec.Sanitize.observe ();
  let digest = ref "" in
  for r = 0 to max 1 repeats - 1 do
    (* Repeats reuse the environment's buffers: [Env.reset] refills them in
       place instead of reallocating the working set per repeat. *)
    if r > 0 then Vinterp.Env.reset ~seed env k;
    let d =
      match Vexec.Backend.run_in prepared env with
      | reductions -> Vexec.Backend.digest env reductions
      | exception ((Vinterp.Env.Out_of_bounds _ | Invalid_argument _) as e) ->
          "trap:" ^ Printexc.to_string e
    in
    if r = 0 then digest := d
    else if not (String.equal !digest d) then
      invalid_arg
        (Printf.sprintf
           "Measure.execute: nondeterministic digest for %s on %s backend"
           k.Kernel.name
           (Vexec.Backend.to_string backend))
  done;
  (* Fault site [sanitize.poison]: corrupt one shared master after the
     measured runs.  The post-run verification below must catch it — this
     is the seeded proof that the sanitizer's detection path works. *)
  if
    Vfault.Inject.sanitize_poison
      ~key:(k.Kernel.name ^ "#" ^ string_of_int seed)
  then ignore (Vinterp.Env.poison_master ());
  Vexec.Sanitize.verify ~site:("measure:" ^ k.Kernel.name);
  { exec_digest = !digest }

let measure ?(noise_amp = default_noise) ?(seed = 1) (d : Descr.t) ~n
    (vk : Vvect.Vinstr.vkernel) =
  let scalar_cycles = total_scalar_cycles d ~n vk.scalar in
  let vector_cycles = total_vector_cycles d ~n vk in
  let clean = scalar_cycles /. vector_cycles in
  let noisy =
    clean *. noise_factor ~amp:noise_amp ~seed vk.scalar.Kernel.name d.name
  in
  (* Fault-injection hook: under the active plan the "hardware" speedup can
     come back NaN, infinite, or spiked.  Keyed on content (kernel, machine,
     seed) so injection is identical across worker counts. *)
  let noisy =
    Vfault.Inject.measurement
      ~key:
        (vk.scalar.Kernel.name ^ "@" ^ d.name ^ "#" ^ string_of_int seed)
      noisy
  in
  { scalar_cycles; vector_cycles; speedup = noisy; speedup_clean = clean }
