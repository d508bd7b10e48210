(* Linear epsilon-insensitive support vector regression, trained by dual
   coordinate descent (Ho & Lin, JMLR 2012).  The x86 experiments of the
   paper fit their cost model with SVR in addition to L2 and NNLS.

   Dual problem over beta in [-C, C]^m:
     min 1/2 beta^T Q beta - y^T beta + eps ||beta||_1,   Q = X X^T
   with the primal weights recovered as w = sum_i beta_i x_i. *)

type params = { c : float; epsilon : float; max_epochs : int; tol : float }

let default_params = { c = 10.0; epsilon = 0.01; max_epochs = 1000; tol = 1e-6 }

(* Deterministic xorshift PRNG for the epoch permutations: training must be
   reproducible run to run. *)
let shuffle state arr =
  let rand_bits () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state
  in
  for i = Array.length arr - 1 downto 1 do
    let j = rand_bits () mod (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* Closed-form coordinate minimizer: minimize over the new value s of
   beta_i of  1/2 q (s - b)^2 + g (s - b) + eps |s|,  clipped to [-C, C].
   Inlined, so a coordinate step boxes neither its arguments nor its
   result. *)
let[@inline] coordinate_min ~q ~g ~b ~eps ~c =
  let s =
    let sp = b -. ((g +. eps) /. q) in
    if sp > 0.0 then sp
    else
      let sn = b -. ((g -. eps) /. q) in
      if sn < 0.0 then sn else 0.0
  in
  Float.max (-.c) (Float.min c s)

let fit ?(params = default_params) x y =
  let m = Mat.rows x and n = Mat.cols x in
  if Array.length y <> m then invalid_arg "Svr.fit: size mismatch";
  let xd = x.Mat.data in
  let beta = Array.make m 0.0 in
  let w = Array.make n 0.0 in
  let qdiag =
    Array.init m (fun i ->
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          let v = xd.((i * n) + j) in
          acc := !acc +. (v *. v)
        done;
        !acc)
  in
  let order = Array.init m Fun.id in
  let state = ref 0x9E3779B9 in
  let epoch = ref 0 in
  let max_delta = ref infinity in
  while !epoch < params.max_epochs && !max_delta > params.tol do
    incr epoch;
    max_delta := 0.0;
    shuffle state order;
    for t = 0 to m - 1 do
      let i = order.(t) in
      let q = qdiag.(i) in
      if q > 0.0 then begin
        let row = i * n in
        let dot = ref 0.0 in
        for j = 0 to n - 1 do
          dot := !dot +. (w.(j) *. xd.(row + j))
        done;
        let g = !dot -. y.(i) in
        let s =
          coordinate_min ~q ~g ~b:beta.(i) ~eps:params.epsilon ~c:params.c
        in
        let d = s -. beta.(i) in
        if abs_float d > 0.0 then begin
          beta.(i) <- s;
          for j = 0 to n - 1 do
            w.(j) <- w.(j) +. (d *. xd.(row + j))
          done;
          max_delta := Float.max !max_delta (abs_float d)
        end
      end
    done
  done;
  w
