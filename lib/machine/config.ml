(* Textual machine descriptions.

   The op tables inside [Descr.t] are functions, but their domain is finite
   (operation class x element type), so a machine can be dumped as a full
   table and rebuilt exactly.  The format is line-oriented key/value, one
   fact per line, so custom cores can be described in a file and loaded with
   [--machine-file] without recompiling. *)

open Vir

let header = "vecmodel-machine v1"

let unit_of_string = function
  | "alu" -> Some Descr.U_alu
  | "fpu" -> Some Descr.U_fpu
  | "load" -> Some Descr.U_mem_load
  | "store" -> Some Descr.U_mem_store
  | _ -> None

let ty_of_string = function
  | "i32" -> Some Types.I32
  | "i64" -> Some Types.I64
  | "f32" -> Some Types.F32
  | "f64" -> Some Types.F64
  | _ -> None

let opclass_of_string s =
  List.find_opt (fun c -> String.equal (Opclass.to_string c) s) Opclass.all

(* --- writing ------------------------------------------------------------- *)

let to_string (d : Descr.t) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" header;
  line "name %s" d.name;
  line "vector-bits %d" d.vector_bits;
  line "issue-width %d" d.issue_width;
  line "inorder %b" d.inorder;
  List.iter
    (fun (kind, count) ->
      line "unit %s %d" (Descr.unit_kind_to_string kind) count)
    d.units;
  (match d.gather with
  | Descr.Scalarized -> line "gather scalarized"
  | Descr.Native { per_elem_rtp } -> line "gather native %.17g" per_elem_rtp);
  let m = d.mem in
  line "mem-line %d" m.line_bytes;
  line "mem-sizes %d %d %d" m.l1_bytes m.l2_bytes m.l3_bytes;
  line "mem-bw %.17g %.17g %.17g %.17g" m.l1_bw m.l2_bw m.l3_bw m.dram_bw;
  line "mem-lat %.17g %.17g %.17g %.17g" m.l1_lat m.l2_lat m.l3_lat m.dram_lat;
  line "loop-uops %d" d.loop_uops;
  line "setup-cycles %.17g" d.vec_setup_cycles;
  List.iter
    (fun (scope, table) ->
      List.iter
        (fun cls ->
          List.iter
            (fun ty ->
              let i : Descr.op_info = table cls ty in
              line "%s %s %s lat %.17g rtp %.17g unit %s uops %d" scope
                (Opclass.to_string cls) (Types.to_string ty) i.lat i.rtp
                (Descr.unit_kind_to_string i.unit_kind)
                i.uops)
            Types.all)
        Opclass.all)
    [ ("scalar", d.scalar_op); ("vector", d.vector_op) ];
  Buffer.contents b

let save d path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string d))

(* --- reading -------------------------------------------------------------- *)

type partial = {
  mutable p_name : string option;
  mutable p_bits : int option;
  mutable p_issue : int option;
  mutable p_inorder : bool;
  mutable p_units : (Descr.unit_kind * int) list;
  mutable p_gather : Descr.gather_policy option;
  mutable p_line : int option;
  mutable p_sizes : (int * int * int) option;
  mutable p_bw : (float * float * float * float) option;
  mutable p_lat : (float * float * float * float) option;
  mutable p_loop_uops : int option;
  mutable p_setup : float option;
  p_scalar : (Opclass.t * Types.scalar, Descr.op_info) Hashtbl.t;
  p_vector : (Opclass.t * Types.scalar, Descr.op_info) Hashtbl.t;
}

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.split_on_char '\n' (String.trim s) with
  | h :: rest when String.equal h header -> (
      let p =
        {
          p_name = None; p_bits = None; p_issue = None; p_inorder = false;
          p_units = []; p_gather = None; p_line = None; p_sizes = None;
          p_bw = None; p_lat = None; p_loop_uops = None; p_setup = None;
          p_scalar = Hashtbl.create 64; p_vector = Hashtbl.create 64;
        }
      in
      let parse_op scope_tbl rest_words line =
        match rest_words with
        | [ cls_s; ty_s; "lat"; lat; "rtp"; rtp; "unit"; u; "uops"; uops ] -> (
            match
              ( opclass_of_string cls_s, ty_of_string ty_s,
                float_of_string_opt lat, float_of_string_opt rtp,
                unit_of_string u, int_of_string_opt uops )
            with
            | Some cls, Some ty, Some lat, Some rtp, Some unit_kind, Some uops
              ->
                Hashtbl.replace scope_tbl (cls, ty)
                  { Descr.lat; rtp; unit_kind; uops };
                Ok ()
            | _ -> err "bad op line: %s" line)
        | _ -> err "bad op line: %s" line
      in
      let parse_line line =
        if String.trim line = "" then Ok ()
        else
          match String.split_on_char ' ' (String.trim line) with
          | "name" :: ws -> p.p_name <- Some (String.concat " " ws); Ok ()
          | [ "vector-bits"; v ] ->
              p.p_bits <- int_of_string_opt v;
              Ok ()
          | [ "issue-width"; v ] -> p.p_issue <- int_of_string_opt v; Ok ()
          | [ "inorder"; v ] -> p.p_inorder <- bool_of_string_opt v |> Option.value ~default:false; Ok ()
          | [ "unit"; k; c ] -> (
              match (unit_of_string k, int_of_string_opt c) with
              | Some kind, Some count ->
                  p.p_units <- p.p_units @ [ (kind, count) ];
                  Ok ()
              | _ -> err "bad unit line: %s" line)
          | [ "gather"; "scalarized" ] ->
              p.p_gather <- Some Descr.Scalarized;
              Ok ()
          | [ "gather"; "native"; v ] -> (
              match float_of_string_opt v with
              | Some f -> p.p_gather <- Some (Descr.Native { per_elem_rtp = f }); Ok ()
              | None -> err "bad gather line: %s" line)
          | [ "mem-line"; v ] -> p.p_line <- int_of_string_opt v; Ok ()
          | [ "mem-sizes"; a; bb; c ] -> (
              match (int_of_string_opt a, int_of_string_opt bb, int_of_string_opt c) with
              | Some x, Some y, Some z -> p.p_sizes <- Some (x, y, z); Ok ()
              | _ -> err "bad mem-sizes: %s" line)
          | [ "mem-bw"; a; bb; c; dd ] -> (
              match
                (float_of_string_opt a, float_of_string_opt bb,
                 float_of_string_opt c, float_of_string_opt dd)
              with
              | Some x, Some y, Some z, Some w -> p.p_bw <- Some (x, y, z, w); Ok ()
              | _ -> err "bad mem-bw: %s" line)
          | [ "mem-lat"; a; bb; c; dd ] -> (
              match
                (float_of_string_opt a, float_of_string_opt bb,
                 float_of_string_opt c, float_of_string_opt dd)
              with
              | Some x, Some y, Some z, Some w -> p.p_lat <- Some (x, y, z, w); Ok ()
              | _ -> err "bad mem-lat: %s" line)
          | [ "loop-uops"; v ] -> p.p_loop_uops <- int_of_string_opt v; Ok ()
          | [ "setup-cycles"; v ] -> p.p_setup <- float_of_string_opt v; Ok ()
          | "scalar" :: ws -> parse_op p.p_scalar ws line
          | "vector" :: ws -> parse_op p.p_vector ws line
          | _ -> err "unparseable line: %s" line
      in
      let rec go = function
        | [] -> Ok ()
        | l :: ls -> ( match parse_line l with Ok () -> go ls | e -> e)
      in
      match go rest with
      | Error e -> Error e
      | Ok () -> (
          let complete tbl =
            List.for_all
              (fun cls ->
                List.for_all (fun ty -> Hashtbl.mem tbl (cls, ty)) Types.all)
              Opclass.all
          in
          match
            ( p.p_name, p.p_bits, p.p_issue, p.p_gather, p.p_line, p.p_sizes,
              p.p_bw, p.p_lat, p.p_loop_uops, p.p_setup )
          with
          | ( Some name, Some vector_bits, Some issue_width, Some gather,
              Some line_bytes, Some (l1, l2, l3), Some (b1, b2, b3, b4),
              Some (t1, t2, t3, t4), Some loop_uops, Some vec_setup_cycles )
            when p.p_units <> [] && complete p.p_scalar && complete p.p_vector
            ->
              let lookup tbl cls ty = Hashtbl.find tbl (cls, ty) in
              Ok
                {
                  Descr.name;
                  vector_bits;
                  issue_width;
                  units = p.p_units;
                  scalar_op = lookup p.p_scalar;
                  vector_op = lookup p.p_vector;
                  gather;
                  inorder = p.p_inorder;
                  mem =
                    {
                      Descr.line_bytes;
                      l1_bytes = l1;
                      l2_bytes = l2;
                      l3_bytes = l3;
                      l1_bw = b1;
                      l2_bw = b2;
                      l3_bw = b3;
                      dram_bw = b4;
                      l1_lat = t1;
                      l2_lat = t2;
                      l3_lat = t3;
                      dram_lat = t4;
                    };
                  loop_uops;
                  vec_setup_cycles;
                }
          | _ -> err "incomplete machine description (missing fields or op table entries)"))
  | _ -> err "not a %s file" header

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e
