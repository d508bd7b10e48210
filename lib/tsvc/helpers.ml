(* Shared shorthand for writing TSVC kernels compactly.  Every kernel is a
   single function from a builder to unit; [mk] wraps it into a finished,
   validated kernel. *)

open Vir
module B = Builder

let mk name descr build =
  let b = B.make name ~descr in
  build b;
  let k = B.finish b in
  Validate.check_exn k;
  (match Bounds.check k with
  | [] -> ()
  | v :: _ ->
      invalid_arg
        (Format.asprintf "kernel %s out of bounds: %a" name Bounds.pp_violation v));
  k

(* 1-d loads/stores at [i + off]. *)
let ld ?(off = 0) b arr i = B.load b arr [ B.ix ~off i ]
let st ?(off = 0) b arr i v = B.store b arr [ B.ix ~off i ] v

(* Reversed traversals: arr[(n-1) - i + off]. *)
let ld_rev ?(off = 0) b arr i = B.load b arr [ B.ix_rev ~off i ]
let st_rev b arr i v = B.store b arr [ B.ix_rev i ] v

(* 2-d accesses arr[r][c]; loads take per-dimension offsets. *)
let ld2 ?(roff = 0) ?(coff = 0) b arr r c =
  B.load b arr [ B.ix ~off:roff r; B.ix ~off:coff c ]

let st2 b arr r c v = B.store b arr [ B.ix r; B.ix c ] v

(* Strided 1-d access arr[scale*i + off]. *)
let ld_s b arr ~scale ?(off = 0) i = B.load b arr [ B.ix ~scale ~off i ]
let st_s b arr ~scale ?(off = 0) i v = B.store b arr [ B.ix ~scale ~off i ] v

(* Index-array load (I32 permutation values). *)
let ldx ?(off = 0) b arr i = B.load_index b arr [ B.ix ~off i ]

let c1 = B.cf 1.0
let c0 = B.cf 0.0
let chalf = B.cf 0.5
let c2 = B.cf 2.0

(* Cast the induction variable to f32 for use in arithmetic. *)
let fidx b i = B.cast b ~from_:Types.I64 ~to_:Types.F32 i
