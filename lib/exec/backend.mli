(* Execution-backend selection and a uniform run interface over the two
   tiers: the reference interpreter and the closure-compiled path.  Both
   produce bit-identical results (the exec test suite enforces it); they
   differ only in speed and hooks. *)

type t = Interp | Closure

val to_string : t -> string
val of_string : string -> t option

val default : unit -> t
(** [VECMODEL_BACKEND] (invalid values warn once and fall through), else
    [Closure]. *)

type prepared
(** A kernel lowered (and for [Closure], compiled) once for repeated
    execution; [run_in] only rebinds to the environment. *)

val prepare :
  ?trace:(int -> int -> bool -> unit) -> t -> Vir.Kernel.t -> prepared
(** [trace slot idx is_write] is called before each memory access's bounds
    check, in body order, with [slot] a {!Program.array_slot}; both tiers
    report the same stream, traps included.  On [Closure] a trace compiles
    the guarded nest alone, once; without one, the checked and unchecked
    nests are compiled, and {!Closure.run_bound} picks one on every bind. *)

val run_in : prepared -> Vinterp.Env.t -> (string * float) list
(** Execute over [env] in place; returns final reduction values.  Traps
    exactly like [Vinterp.Interp.run_in]. *)

val run : n:int -> t -> Vir.Kernel.t -> Vinterp.Interp.result
(** Fresh environment, prepare, run — drop-in for [Vinterp.Interp.run]. *)

val digest : Vinterp.Env.t -> (string * float) list -> string
(** Splitmix-style fingerprint of the final memory image plus reduction
    values (arrays over 4096 elements are sampled on an even stride);
    deterministic across backends and worker counts. *)
