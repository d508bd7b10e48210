(* Closure tier: the body and loop nest compiled to nested OCaml closures
   over a [Flat.state].  Compile once per program; the compiled nest reads
   all bind-dependent values through the state's stable arrays, so it stays
   valid across any number of [Flat.bind] calls. *)

type t = { checked : unit -> unit; unchecked : unit -> unit }
(** The nest compiled twice: [checked] computes every index through the
    access's index closure and guards it; [unchecked] elides the guards on
    affine accesses and may only run when [affine_safe] holds for the
    current binding.  Indirect accesses stay guarded in both. *)

val compile : ?trace:(int -> int -> bool -> unit) -> Flat.state -> t
(** Compile the full loop nest (body + reduction folds) of the state's
    program.  The result mutates the state's bound environment when run.
    Loads and stores never convert ({!Program.lower} emits conversions as
    instructions); [unchecked] inlines indirect and single-term affine
    indices.  With [trace], only the guarded nest is compiled, with the
    hook in its index closures, and it fills both fields; it calls
    [trace slot idx is_write] before each memory access's bounds check, in
    body order, with [slot] a {!Program.array_slot}. *)

val affine_safe : Flat.state -> bool
(** Whether every affine access of the bound state provably stays inside its
    array over the whole iteration space ([Vir.Ibox] interval analysis on
    the bind-time constants, coefficients and loop ranges; a provably empty
    loop — non-positive steps included — is vacuously safe). *)

val run_bound : Flat.state -> t -> (string * float) list
(** Reset reduction accumulators, run the compiled nest over the currently
    bound environment, and return final reduction values.  The unchecked
    body runs exactly on binds where [affine_safe] holds, the checked body
    on every other. *)

val run_in : Flat.state -> t -> Vinterp.Env.t -> (string * float) list
(** [Flat.bind] then [run_bound]. *)
