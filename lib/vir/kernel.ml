(* A kernel is a perfect loop nest (outermost first) around a single basic
   block, with optional order-insensitive reductions.  This is exactly the
   shape of the TSVC loop patterns the paper evaluates on: the innermost loop
   is the vectorization candidate. *)

type trip =
  | Tn  (* n iterations *)
  | Tn_div of int  (* n / k *)
  | Tn_minus of int  (* n - k *)
  | Tn2  (* "2-d" extent: isqrt n, used by matrix kernels *)
  | Tn2_minus of int  (* isqrt n - k: interior of a 2-d domain *)
  | Tconst of int

type loop = {
  var : string;
  trip : trip;
  start : int;  (* first value of the loop variable *)
  step : int;  (* increment; > 0 *)
}

(* Array extents, in elements, as a function of the problem size [n].
   [Lin (a, b)] means a*n + b elements; [Quad] is an (isqrt n)^2 matrix
   accessed through two subscript dimensions. *)
type extent = Lin of int * int | Quad

(* [Data] arrays hold workload values; [Idx] arrays hold precomputed valid
   indices in [0, n) and feed indirect (gather/scatter) addressing. *)
type array_role = Data | Idx

type array_decl = {
  arr_name : string;
  arr_ty : Types.scalar;
  arr_extent : extent;
  arr_role : array_role;
}

type reduction = {
  red_name : string;
  red_ty : Types.scalar;
  red_op : Op.redop;
  red_src : Instr.operand;  (* evaluated once per innermost iteration *)
  red_init : float;
}

type t = {
  name : string;
  descr : string;
  loops : loop list;  (* outermost first; never empty *)
  body : Instr.t list;
  reductions : reduction list;
  arrays : array_decl list;
  params : string list;  (* scalar runtime parameters *)
}

let innermost k =
  match List.rev k.loops with
  | l :: _ -> l
  | [] -> invalid_arg "Kernel.innermost: kernel has no loops"

let find_array k name =
  List.find_opt (fun d -> String.equal d.arr_name name) k.arrays

(* Integer square root, for the 2-d extents. *)
let isqrt n =
  if n <= 0 then 0
  else
    let x = int_of_float (sqrt (float_of_int n)) in
    if (x + 1) * (x + 1) <= n then x + 1 else if x * x > n then x - 1 else x

let trip_bound ~n = function
  | Tn -> n
  | Tn_div k -> n / k
  | Tn_minus k -> n - k
  | Tn2 -> isqrt n
  | Tn2_minus k -> isqrt n - k
  | Tconst c -> c

(* Number of executed iterations of a loop for problem size [n]. *)
let iterations ~n (l : loop) =
  let bound = trip_bound ~n l.trip in
  if bound <= l.start then 0 else (bound - l.start + l.step - 1) / l.step

let extent_elems ~n = function
  | Lin (a, b) -> (a * n) + b
  | Quad ->
      let n2 = isqrt n in
      n2 * n2

(* Total number of executions of the innermost body for problem size [n]. *)
let total_iterations ~n k =
  List.fold_left (fun acc l -> acc * iterations ~n l) 1 k.loops

(* How the memory address of an access moves per innermost iteration.
   [Sconst c]: by a fixed c elements (0 = loop-invariant location, 1 =
   contiguous, -1 = reversed, |c| > 1 = strided).  [Srow c]: by c rows of a
   2-d array, i.e. a large stride that scales with the matrix width.
   [Sindirect]: through a computed index (gather/scatter). *)
type stride = Sconst of int | Srow of int | Sindirect

let coeff_of var (d : Instr.dim) =
  match List.assoc_opt var d.terms with Some c -> c | None -> 0

(* Stride classification of an access with respect to the innermost loop. *)
let access_stride k (addr : Instr.addr) =
  match addr with
  | Indirect _ -> Sindirect
  | Affine { dims; _ } -> (
      let inner = innermost k in
      match dims with
      | [ d ] -> Sconst (coeff_of inner.var d * inner.step)
      | [ drow; dcol ] ->
          let crow = coeff_of inner.var drow * inner.step in
          let ccol = coeff_of inner.var dcol * inner.step in
          if crow <> 0 then Srow crow else Sconst ccol
      | _ -> invalid_arg "Kernel.access_stride: unsupported dimensionality")

(* Total data footprint in bytes for problem size [n]: determines which cache
   level the working set lives in. *)
let footprint_bytes ~n k =
  List.fold_left
    (fun acc d -> acc + (extent_elems ~n d.arr_extent * Types.size_bytes d.arr_ty))
    0 k.arrays

let loop_vars k = List.map (fun l -> l.var) k.loops

(* Registers of [body] that are live into a reduction or a later instruction;
   positions holding stores never appear. *)
let used_regs k =
  let used = Hashtbl.create 16 in
  let mark = function Instr.Reg r -> Hashtbl.replace used r () | _ -> () in
  List.iter (fun i -> List.iter mark (Instr.operands i)) k.body;
  List.iter (fun r -> mark r.red_src) k.reductions;
  used
