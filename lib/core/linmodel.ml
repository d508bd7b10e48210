(* The paper's refined cost models: linear in instruction-class features,
   fitted against measurements.

   Speedup-targeted models predict the speedup directly (target interval
   (0, VF], which is what makes the fit well-conditioned); cost-targeted
   models price scalar and vector blocks with one shared weight vector and
   derive the speedup as a cost ratio. *)

type fit_method = L2 | Nnls | Svr | Huber

let fit_method_to_string = function
  | L2 -> "L2"
  | Nnls -> "NNLS"
  | Svr -> "SVR"
  | Huber -> "Huber"

type feature_kind = Raw | Rated | Extended | Absint | Opt | Deps | Cert

let feature_kind_to_string = function
  | Raw -> "raw"
  | Rated -> "rated"
  | Extended -> "extended"
  | Absint -> "absint"
  | Opt -> "opt"
  | Deps -> "deps"
  | Cert -> "cert"

type target = Speedup | Cost

let target_to_string = function Speedup -> "speedup" | Cost -> "cost"

let names_of_kind = function
  | Cert -> Feature.cert_names
  | Deps -> Feature.deps_names
  | Opt -> Feature.opt_names
  | Absint -> Feature.absint_names
  | Extended -> Feature.extended_names
  | Raw | Rated -> Feature.names

let dim_of kind = List.length (names_of_kind kind)

type t = {
  weights : float array;
  method_ : fit_method;
  features : feature_kind;
  target : target;
}

let features_of kind (s : Dataset.sample) =
  match kind with
  | Raw -> s.raw
  | Rated -> s.rated
  | Extended -> s.extended
  | Absint -> s.absint
  | Opt -> s.opt
  | Deps -> s.deps
  | Cert -> s.cert

let dot w f =
  let acc = ref 0.0 in
  for i = 0 to Array.length f - 1 do
    acc := !acc +. (f.(i) *. w.(i))
  done;
  !acc

let l2_solve x ys = snd (Vlinalg.Qr.lstsq_or_ridge ~lambda:1e-6 x ys)

(* Huber-IRLS: iteratively reweighted least squares under the Huber loss
   (tuning constant k = 1.345 for 95% efficiency at the Gaussian).  The
   residual scale is re-estimated each iteration as 1.4826 * MAD; rows
   whose residual exceeds k*s get weight k*s/|r| (down-weighting outliers
   linearly), applied by scaling row and target by sqrt(weight) so each
   iteration is a plain weighted least-squares solve.  On data an L2 fit
   explains exactly (scale ~ 0) the L2 solution is returned unchanged, so
   Huber = L2 at zero contamination. *)
let huber_k = 1.345

let huber_solve x ys =
  let n = Array.length ys in
  let p = Vlinalg.Mat.cols x in
  let yscale =
    Array.fold_left (fun m v -> Float.max m (Float.abs v)) 1.0 ys
  in
  (* Each iteration's weighted design, refilled in place: [Qr] factors a
     copy, so one matrix serves every solve. *)
  let xw = Vlinalg.Mat.create n p in
  let rec iterate w iter =
    if iter >= 50 then w
    else begin
      let fitted = Vlinalg.Mat.mat_vec x w in
      let absr = Array.init n (fun i -> Float.abs (ys.(i) -. fitted.(i))) in
      let s = 1.4826 *. Vstats.Descriptive.median absr in
      if s <= 1e-12 *. yscale then w
      else begin
        let sw =
          Array.init n (fun i ->
              let r = absr.(i) in
              if r <= huber_k *. s then 1.0 else sqrt (huber_k *. s /. r))
        in
        for i = 0 to n - 1 do
          for j = (i * p) to (i * p) + p - 1 do
            xw.Vlinalg.Mat.data.(j) <- sw.(i) *. x.Vlinalg.Mat.data.(j)
          done
        done;
        let yr = Array.init n (fun i -> sw.(i) *. ys.(i)) in
        let w' = l2_solve xw yr in
        let wscale =
          Array.fold_left (fun m v -> Float.max m (Float.abs v)) 1.0 w
        in
        let delta =
          Array.fold_left Float.max 0.0
            (Array.mapi (fun i v -> Float.abs (v -. w.(i))) w')
        in
        if delta <= 1e-10 *. wscale then w' else iterate w' (iter + 1)
      end
    end
  in
  iterate (l2_solve x ys) 0

let solve method_ rows ys =
  let x = Vlinalg.Mat.of_rows rows in
  match method_ with
  | L2 -> l2_solve x ys
  | Huber -> huber_solve x ys
  | Nnls -> Vlinalg.Nnls.solve x ys
  | Svr ->
      (* Normalize the epsilon tube to the target scale. *)
      let scale =
        Array.fold_left (fun m v -> Float.max m (abs_float v)) 1.0 ys
      in
      let params =
        { Vlinalg.Svr.default_params with epsilon = 0.02 *. scale; c = 100.0 }
      in
      Vlinalg.Svr.fit ~params x ys

let fit ~method_ ~features ~target (samples : Dataset.sample list) =
  let weights =
    match target with
    | Speedup ->
        let rows = List.map (features_of features) samples in
        let ys = Dataset.measured_array samples in
        solve method_ rows ys
    | Cost ->
        (* Two rows per kernel: the scalar block priced per vf iterations and
           the vector block priced per block, sharing one weight vector.
           Cost fits always use raw counts: a block's cost scales with its
           size, which rating would erase. *)
        let rows =
          List.concat_map
            (fun (s : Dataset.sample) ->
              [ Array.map (fun v -> v *. float_of_int s.vf) s.raw; s.vraw ])
            samples
        in
        let ys =
          Array.of_list
            (List.concat_map
               (fun (s : Dataset.sample) ->
                 [ s.scalar_cycles_iter *. float_of_int s.vf;
                   s.vector_cycles_block ])
               samples)
        in
        solve method_ rows ys
  in
  { weights; method_; features; target }

(* Predicted speedup of one sample under the model. *)
let predict (m : t) (s : Dataset.sample) =
  match m.target with
  | Speedup -> dot m.weights (features_of m.features s)
  | Cost ->
      let scalar =
        dot m.weights (Array.map (fun v -> v *. float_of_int s.vf) s.raw)
      in
      let vector = dot m.weights s.vraw in
      (* An L2 fit can price a block at a non-positive cost; clamp as a
         real compiler would. *)
      if vector <= 1e-6 then float_of_int s.vf
      else Float.max 0.0 (scalar /. vector)

let predict_all m samples = Array.of_list (List.map (predict m) samples)

(* --- compatibility ---------------------------------------------------------
   The serving tier extracts feature vectors itself, so a loaded model
   must agree with the server's configured feature set in both kind and
   column arity.  A stale checkpoint that disagrees must be rejected with
   a typed error, never loaded to mispredict silently. *)

type mismatch = {
  mm_expected : feature_kind;
  mm_expected_dim : int;
  mm_got : feature_kind;
  mm_got_dim : int;
}

let mismatch_to_string m =
  Printf.sprintf
    "model features %s (%d column%s) incompatible with configured %s (%d \
     column%s)"
    (feature_kind_to_string m.mm_got)
    m.mm_got_dim
    (if m.mm_got_dim = 1 then "" else "s")
    (feature_kind_to_string m.mm_expected)
    m.mm_expected_dim
    (if m.mm_expected_dim = 1 then "" else "s")

let compat ~features (m : t) =
  let expected_dim = dim_of features in
  let got_dim = Array.length m.weights in
  if m.features = features && got_dim = expected_dim then Ok ()
  else
    Error
      { mm_expected = features; mm_expected_dim = expected_dim;
        mm_got = m.features; mm_got_dim = got_dim }

(* Predict from a feature vector the caller extracted (the serving hot
   path: no Dataset.sample exists).  Speedup-target models only — a
   cost-target model needs scalar and vector block counts. *)
let predict_vec (m : t) feats =
  if m.target <> Speedup then
    invalid_arg "Linmodel.predict_vec: cost-target model";
  if Array.length feats <> Array.length m.weights then
    invalid_arg
      (Printf.sprintf "Linmodel.predict_vec: %d features against %d weights"
         (Array.length feats) (Array.length m.weights));
  dot m.weights feats

(* --- persistence ----------------------------------------------------------
   A fitted model is a handful of floats; the textual format is one
   key/value pair per line so models can be versioned and diffed. *)

let to_string (m : t) =
  let b = Buffer.create 256 in
  Buffer.add_string b "vecmodel-linmodel v1\n";
  Buffer.add_string b
    (Printf.sprintf "method %s\n" (fit_method_to_string m.method_));
  Buffer.add_string b
    (Printf.sprintf "features %s\n" (feature_kind_to_string m.features));
  Buffer.add_string b (Printf.sprintf "target %s\n" (target_to_string m.target));
  let names = names_of_kind m.features in
  List.iteri
    (fun i n -> Buffer.add_string b (Printf.sprintf "w %s %.17g\n" n m.weights.(i)))
    names;
  Buffer.contents b

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char '\n' (String.trim s) with
  | header :: rest when String.equal header "vecmodel-linmodel v1" -> (
      let meta = Hashtbl.create 4 in
      let weights = Hashtbl.create 32 in
      let parse_line line =
        match String.split_on_char ' ' line with
        | [ "method"; v ] | [ "features"; v ] | [ "target"; v ] ->
            Hashtbl.replace meta (List.hd (String.split_on_char ' ' line)) v;
            Ok ()
        | [ "w"; name; v ] -> (
            match float_of_string_opt v with
            | Some f ->
                Hashtbl.replace weights name f;
                Ok ()
            | None -> err "bad weight %s" line)
        | [ "" ] -> Ok ()
        | _ -> err "unparseable line: %s" line
      in
      let rec parse = function
        | [] -> Ok ()
        | l :: ls -> ( match parse_line l with Ok () -> parse ls | e -> e)
      in
      match parse rest with
      | Error e -> Error e
      | Ok () -> (
          let get k = Hashtbl.find_opt meta k in
          let method_ =
            match get "method" with
            | Some "L2" -> Some L2
            | Some "NNLS" -> Some Nnls
            | Some "SVR" -> Some Svr
            | Some "Huber" -> Some Huber
            | _ -> None
          in
          let features =
            match get "features" with
            | Some "raw" -> Some Raw
            | Some "rated" -> Some Rated
            | Some "extended" -> Some Extended
            | Some "absint" -> Some Absint
            | Some "opt" -> Some Opt
            | Some "deps" -> Some Deps
            | Some "cert" -> Some Cert
            | _ -> None
          in
          let target =
            match get "target" with
            | Some "speedup" -> Some Speedup
            | Some "cost" -> Some Cost
            | _ -> None
          in
          match (method_, features, target) with
          | Some method_, Some features, Some target -> (
              let names = names_of_kind features in
              (* Strict arity: a weight naming a column the declared
                 feature set doesn't have means the file was written
                 against a different feature schema — reject it rather
                 than silently dropping the extra columns. *)
              let unknown =
                Hashtbl.fold
                  (fun n _ acc -> if List.mem n names then acc else n :: acc)
                  weights []
              in
              match List.sort compare unknown with
              | u :: _ ->
                  err "unknown weight %s for %s features" u
                    (feature_kind_to_string features)
              | [] ->
              let w =
                List.map
                  (fun n ->
                    match Hashtbl.find_opt weights n with
                    | Some v -> Ok v
                    | None -> err "missing weight %s" n)
                  names
              in
              if List.exists Result.is_error w then
                List.find Result.is_error w |> Result.map (fun _ -> assert false)
              else
                Ok
                  { weights = Array.of_list (List.map Result.get_ok w);
                    method_; features; target })
          | _ -> err "missing or invalid method/features/target header"))
  | _ -> err "not a vecmodel-linmodel v1 file"

(* Atomic: a crash mid-save must never leave a truncated model file. *)
let save m path = Checkpoint.write_atomic path (to_string m)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e
