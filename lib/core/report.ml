(* Text rendering of experiment results: fixed-width tables and an ASCII
   scatter plot of estimated vs measured speedup (the paper's figures are
   exactly such scatters).  Printers write to stdout; [to_string] and
   [scatter ?ppf] let the tests capture output. *)

type row = { label : string; eval : Metrics.eval }

type result = {
  id : string;
  title : string;
  machine : string;
  transform : string;
  n_samples : int;
  rows : row list;
  notes : string list;
}

let std = Format.std_formatter

let print_header ppf (r : result) =
  Format.fprintf ppf "\n== %s: %s ==\n" r.id r.title;
  Format.fprintf ppf "   machine %s, transform %s, %d vectorizable kernels\n"
    r.machine r.transform r.n_samples

let print_rows ppf (r : result) =
  Format.fprintf ppf "   %-28s %7s %13s %7s %7s %4s %4s %5s %12s\n" "model"
    "r" "r 95% CI" "rho" "RMSE" "FP" "FN" "acc" "exec(Mcyc)";
  List.iter
    (fun { label; eval } ->
      let lo, hi = eval.Metrics.pearson_ci in
      Format.fprintf ppf
        "   %-28s %7.3f [%5.2f,%5.2f] %7.3f %7.3f %4d %4d %5.2f %12.2f\n"
        label eval.Metrics.pearson lo hi eval.Metrics.spearman eval.Metrics.rmse
        eval.Metrics.confusion.Vstats.Confusion.fp
        eval.Metrics.confusion.Vstats.Confusion.fn
        (Vstats.Confusion.accuracy eval.Metrics.confusion)
        (eval.Metrics.exec_cycles /. 1e6))
    r.rows;
  (match r.rows with
  | { eval; _ } :: _ ->
      Format.fprintf ppf "   %-28s %54s %12.2f\n" "(oracle)" ""
        (eval.Metrics.oracle_cycles /. 1e6);
      Format.fprintf ppf "   %-28s %54s %12.2f\n" "(never vectorize)" ""
        (eval.Metrics.scalar_cycles /. 1e6);
      Format.fprintf ppf "   %-28s %54s %12.2f\n" "(always vectorize)" ""
        (eval.Metrics.always_cycles /. 1e6)
  | [] -> ());
  List.iter (fun n -> Format.fprintf ppf "   note: %s\n" n) r.notes

let pp ppf (r : result) =
  print_header ppf r;
  print_rows ppf r;
  Format.pp_print_flush ppf ()

let print r = pp std r

(* Render a result into a string (used by the tests). *)
let to_string r = Format.asprintf "%a" pp r

(* --- ASCII scatter ------------------------------------------------------ *)

let scatter ?(ppf = std) ?(width = 56) ?(height = 18) ~xlabel ~ylabel
    (xs : float array) (ys : float array) =
  let n = Array.length xs in
  if n = 0 then Format.fprintf ppf "   (no data)\n"
  else begin
    let finite v = if Float.is_finite v then v else 0.0 in
    let xs = Array.map finite xs and ys = Array.map finite ys in
    let xmax =
      Float.max 1.0 (Array.fold_left Float.max neg_infinity xs) +. 0.2
    in
    let ymax =
      Float.max 1.0 (Array.fold_left Float.max neg_infinity ys) +. 0.2
    in
    let xmin = Float.min 0.0 (Array.fold_left Float.min infinity xs) in
    let ymin = Float.min 0.0 (Array.fold_left Float.min infinity ys) in
    let grid = Array.make_matrix height width ' ' in
    let put x y c =
      let gx =
        int_of_float ((x -. xmin) /. (xmax -. xmin) *. float_of_int (width - 1))
      in
      let gy =
        int_of_float ((y -. ymin) /. (ymax -. ymin) *. float_of_int (height - 1))
      in
      if gx >= 0 && gx < width && gy >= 0 && gy < height then
        grid.(height - 1 - gy).(gx) <- c
    in
    (* The y = x diagonal: perfect prediction. *)
    let steps = 200 in
    for s = 0 to steps do
      let v = xmin +. (float_of_int s /. float_of_int steps *. (xmax -. xmin)) in
      if v >= ymin && v <= ymax then put v v '.'
    done;
    Array.iteri (fun i x -> put x ys.(i) 'o') xs;
    Format.fprintf ppf "   %s vs %s (o = kernel, . = perfect prediction)\n"
      ylabel xlabel;
    Array.iter
      (fun line ->
        Format.fprintf ppf "   |%s|\n" (String.init width (Array.get line)))
      grid;
    Format.fprintf ppf "   +%s+\n" (String.make width '-');
    Format.fprintf ppf "   x: %s in [%.1f, %.1f], y: %s in [%.1f, %.1f]\n"
      xlabel xmin xmax ylabel ymin ymax;
    Format.pp_print_flush ppf ()
  end

(* --- CSV export ----------------------------------------------------------- *)

(* Summary table of a result as CSV (for external plotting). *)
let to_csv (r : result) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "experiment,model,pearson,ci_lo,ci_hi,spearman,rmse,fp,fn,accuracy,exec_cycles\n";
  List.iter
    (fun { label; eval } ->
      let lo, hi = eval.Metrics.pearson_ci in
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%.4f,%.1f\n" r.id
           label eval.Metrics.pearson lo hi eval.Metrics.spearman
           eval.Metrics.rmse eval.Metrics.confusion.Vstats.Confusion.fp
           eval.Metrics.confusion.Vstats.Confusion.fn
           (Vstats.Confusion.accuracy eval.Metrics.confusion)
           eval.Metrics.exec_cycles))
    r.rows;
  Buffer.contents b

(* Per-kernel scatter points as CSV. *)
let scatter_csv ~names ~measured ~predicted =
  let b = Buffer.create 512 in
  Buffer.add_string b "kernel,measured,predicted\n";
  Array.iteri
    (fun i name ->
      Buffer.add_string b
        (Printf.sprintf "%s,%.6f,%.6f\n" name measured.(i) predicted.(i)))
    names;
  Buffer.contents b

(* --- ASCII histogram ------------------------------------------------------- *)

let histogram ~label (xs : float array) =
  let ppf = std and bins = 12 and width = 40 in
  if Array.length xs = 0 then Format.fprintf ppf "   (no data)\n"
  else begin
    let lo = Array.fold_left Float.min xs.(0) xs in
    let hi = Array.fold_left Float.max xs.(0) xs +. 1e-9 in
    let counts = Array.make bins 0 in
    Array.iter
      (fun v ->
        let b =
          int_of_float ((v -. lo) /. (hi -. lo) *. float_of_int bins)
          |> max 0 |> min (bins - 1)
        in
        counts.(b) <- counts.(b) + 1)
      xs;
    let cmax = Array.fold_left max 1 counts in
    Format.fprintf ppf "   %s (n = %d)\n" label (Array.length xs);
    Array.iteri
      (fun b c ->
        let from = lo +. (float_of_int b /. float_of_int bins *. (hi -. lo)) in
        let till = lo +. (float_of_int (b + 1) /. float_of_int bins *. (hi -. lo)) in
        let bar = String.make (c * width / cmax) '#' in
        Format.fprintf ppf "   %5.2f-%5.2f |%-*s %d\n" from till width bar c)
      counts;
    Format.pp_print_flush ppf ()
  end
