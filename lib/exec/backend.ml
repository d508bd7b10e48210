(* Execution-backend selection and a uniform run interface.

   Two tiers share one reference semantics:

     - [Interp]: the tree-walking [Vinterp.Interp] — slowest, but carries
       the [?observe] hook, so it stays the oracle;
     - [Closure]: the lowered [Program.t] compiled to OCaml closures over a
       [Flat.state] arena — the one compiled execution path.

   Both report memory accesses to a [prepare ~trace] hook as (array slot,
   element index, is_write), in the same order.

   The process default is the [VECMODEL_BACKEND] environment variable, else
   [Closure]. *)

module Env = Vinterp.Env

type t = Interp | Closure

let to_string = function Interp -> "interp" | Closure -> "closure"

let of_string = function
  | "interp" -> Some Interp
  | "closure" -> Some Closure
  | _ -> None

let warned = ref false

let default () =
  match Sys.getenv_opt "VECMODEL_BACKEND" with
  | None | Some "" -> Closure
  | Some s -> (
      match of_string s with
      | Some b -> b
      | None ->
          if not !warned then begin
            warned := true;
            Printf.eprintf
              "vecmodel: ignoring invalid VECMODEL_BACKEND=%s (expected \
               interp|closure)\n%!"
              s
          end;
          Closure)

(* A kernel prepared for repeated execution: lowering and (for the closure
   tier) compilation happen once here, then [run_in] only rebinds. *)
type prepared =
  | P_interp of Vir.Kernel.t * (string -> int -> bool -> unit) option
  | P_closure of Flat.state * Closure.t

(* A trace on the interpreter is [Env]'s name-keyed hook, mapped to slots;
   on the closure tier it replaces the two untraced bodies with one traced
   one. *)
let prepare ?trace backend k =
  match backend with
  | Interp ->
      let slot = Program.array_slot k in
      P_interp (k, Option.map (fun f name idx w -> f (slot name) idx w) trace)
  | Closure ->
      let st = Flat.create (Program.lower k) in
      P_closure (st, Closure.compile ?trace st)

let run_in prepared env =
  match prepared with
  | P_interp (k, None) -> Vinterp.Interp.run_in env k
  | P_interp (k, Some hook) ->
      Env.set_trace env hook;
      Fun.protect
        ~finally:(fun () -> Env.clear_trace env)
        (fun () -> Vinterp.Interp.run_in env k)
  | P_closure (st, c) -> Closure.run_in st c env

let run ~n backend k =
  let env = Env.create ~n k in
  let prepared = prepare backend k in
  let reductions = run_in prepared env in
  { Vinterp.Interp.env; reductions }

(* --- execution digest ----------------------------------------------------

   A deterministic fingerprint of the final memory image and reduction
   values.  Folding the digest into cached samples is what lets [vecmodel
   cachestats] attribute entries to the backend that produced them, and
   lets the tests assert that backends (and worker counts) agree without
   shipping whole snapshots.

   This sits on the Dataset.build hot path (once per sample, over arrays of
   n = 32000 floats), so it mixes one native-int step per element rather
   than running byte-wise FNV, and arrays longer than [sample_cap] are
   fingerprinted on an evenly strided slice (first and last elements always
   included) plus their length.  A strided slice still witnesses any
   systematic mis-addressing; the equivalence tests run at small n where
   coverage is total, and compare full snapshots besides. *)

let sample_cap = 4096

(* splitmix-style mixing over OCaml's 63-bit ints; [h] stays non-negative. *)
let mix h v =
  let h = (h lxor v) * 0x9E3779B1 land max_int in
  let h = h lxor (h lsr 29) in
  h * 0x2545F4914F6CDD1D land max_int

let mix_float h v =
  let bits = Int64.bits_of_float v in
  (* low 62 bits, then the top 32 (sign and exponent) so that values
     differing only in the bits [Int64.to_int] drops still separate *)
  let h = mix h (Int64.to_int bits) in
  mix h (Int64.to_int (Int64.shift_right_logical bits 32))

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let digest (env : Env.t) reductions =
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) env.Env.arrays []
    |> List.sort String.compare
  in
  let h = ref 0x1505 in
  List.iter
    (fun name ->
      h := mix_string !h name;
      match Env.store env name with
      | Env.F_arr a ->
          let len = Array.length a in
          h := mix !h len;
          if len <= sample_cap then
            for i = 0 to len - 1 do
              h := mix_float !h (Array.unsafe_get a i)
            done
          else begin
            let stride = len / sample_cap in
            let i = ref 0 in
            while !i < len do
              h := mix_float !h (Array.unsafe_get a !i);
              i := !i + stride
            done;
            h := mix_float !h a.(len - 1)
          end
      | Env.I_arr a ->
          let len = Array.length a in
          h := mix !h len;
          if len <= sample_cap then
            for i = 0 to len - 1 do
              h := mix !h (Array.unsafe_get a i)
            done
          else begin
            let stride = len / sample_cap in
            let i = ref 0 in
            while !i < len do
              h := mix !h (Array.unsafe_get a !i);
              i := !i + stride
            done;
            h := mix !h a.(len - 1)
          end)
    names;
  List.iter
    (fun (name, v) ->
      h := mix_string !h name;
      h := mix_float !h v)
    reductions;
  Printf.sprintf "%016x" !h
