(** "Measurement": total cycles for a full run (vector main loop + scalar
    epilogue + setup) with deterministic pseudo-noise standing in for
    hardware run-to-run variance. *)

val default_noise : float

(** Noise factor in [1-amp, 1+amp], pure in (amp, seed, name, machine). *)
val noise_factor : amp:float -> seed:int -> string -> string -> float

val total_scalar_cycles : Descr.t -> n:int -> Vir.Kernel.t -> float
val total_vector_cycles : Descr.t -> n:int -> Vvect.Vinstr.vkernel -> float

type measurement = {
  scalar_cycles : float;
  vector_cycles : float;
  speedup : float;  (** noisy: plays the role of the hardware ground truth *)
  speedup_clean : float;  (** noise-free model output *)
}

val measure :
  ?noise_amp:float -> ?seed:int -> Descr.t -> n:int -> Vvect.Vinstr.vkernel ->
  measurement

type execution = {
  exec_digest : string;  (** {!Vexec.Backend.digest}; ["trap:..."] if the run trapped *)
}

(** Run the scalar kernel on the selected execution backend ([default ()]
    when omitted) and fingerprint the final memory image and reductions.
    [repeats] re-runs over the same buffers via [Env.reset] and requires the
    digest to be bit-identical each time (raises [Invalid_argument]
    otherwise).

    Buffer ownership comes from the kernel's effect license
    ({!Vexec.Effects.of_kernel}): arrays it proves unwritten alias the
    shared masters ([Frozen]), written arrays get owned copies.  Under
    [Vexec.Sanitize] the shared masters are checksum-verified before and
    after the run, and the [sanitize.poison] fault site can corrupt one
    master after the measured runs — which the post-run verification must
    catch. *)
val execute :
  ?backend:Vexec.Backend.t -> ?seed:int -> ?repeats:int -> n:int ->
  Vir.Kernel.t -> execution
