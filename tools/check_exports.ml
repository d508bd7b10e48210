(* Export gate over the typed trees of the whole workspace.

   Every value a lib/ interface exports is keyed by its [val_uid], and so is
   every identifier in every implementation the workspace builds (lib/,
   bin/, bench/, examples/, tools/, test/ and perfbench/).  Opens, module
   aliases and include re-exports therefore resolve exactly, with no name
   matching.  A module's uses of its own values do not count: they carry
   the uids of its implementation, which share its compilation-unit name.

   Prints three sorted lists: the exports no other module uses, the
   exports only test/ uses, and the optional parameters of exports that no
   call outside the exporting module passes ([Module.value ?label]).  A
   call passes a label when its argument has a real location: the type
   checker fills an omitted optional argument in with a ghost [None].  Test
   call sites count as setters.  [dune runtest] diffs the lists against
   exports.expected, so that file is the allow-list and growing any list
   takes a [dune promote].

   The gate is exact only over sealed interfaces, so it also fails on any
   lib/ module without an .mli (dune's generated alias modules aside), and
   on any [--require DIR] under which no interface was found.

   Usage: check_exports ROOT [--require DIR]...
   ROOT is the build context; [dune build @check] leaves the .cmt and .cmti
   files there.  DIR is relative to ROOT. *)

open Typedtree

let rec walk dir acc =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.fold_left
       (fun acc f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then walk path acc
         else if
           Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti"
         then path :: acc
         else acc)
       acc

(* [Vir__Kernel] -> [Vir.Kernel]: dune's wrapped-library naming. *)
let display modname =
  let n = String.length modname in
  let rec go i =
    if i + 1 >= n then modname
    else if modname.[i] = '_' && modname.[i + 1] = '_' then
      String.sub modname 0 i ^ "." ^ String.sub modname (i + 2) (n - i - 2)
    else go (i + 1)
  in
  go 0

(* Values of a signature, nested module signatures included; module type
   declarations specify values rather than export them. *)
let rec values prefix (sg : signature) acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd ->
          (prefix ^ "." ^ vd.val_name.txt, vd.val_val.val_uid,
           vd.val_val.val_type)
          :: acc
      | Tsig_module
          { md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          values (prefix ^ "." ^ m) sg acc
      | _ -> acc)
    acc sg.sig_items

(* The optional parameters of a value's type, in order. *)
let rec optionals ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optionals rest
  | Tarrow (_, _, rest, _) | Tpoly (rest, _) -> optionals rest
  | _ -> []

let usage () =
  prerr_endline "usage: check_exports ROOT [--require DIR]...";
  exit 2

let () =
  let root, required =
    let rec required = function
      | [] -> []
      | "--require" :: dir :: rest -> dir :: required rest
      | _ -> usage ()
    in
    match List.tl (Array.to_list Sys.argv) with
    | root :: rest -> (root, required rest)
    | [] -> usage ()
  in
  let rel path =
    let p = String.length root + 1 in
    String.sub path p (String.length path - p)
  in
  let exports = ref [] and errors = ref [] and covered = ref [] in
  (* uid -> (used outside test/, used by test/) *)
  let uses = Hashtbl.create 8192 in
  (* (uid, label) of each optional argument passed from outside its module *)
  let set = Hashtbl.create 1024 in
  List.iter
    (fun path ->
      let file = rel path in
      let cmt = Cmt_format.read_cmt path in
      let in_lib = String.starts_with ~prefix:"lib/" file in
      match cmt.cmt_annots with
      | Interface sg when in_lib ->
          covered := file :: !covered;
          exports := values (display cmt.cmt_modname) sg !exports
      | Implementation str ->
          let source = Option.value cmt.cmt_sourcefile ~default:file in
          if
            in_lib
            && (not (Filename.check_suffix source ".ml-gen"))
            && not (Sys.file_exists (path ^ "i"))
          then errors := Printf.sprintf "%s has no .mli" source :: !errors;
          let test = String.starts_with ~prefix:"test/" file in
          let foreign (vd : Types.value_description) =
            match vd.val_uid with
            | Shape.Uid.Item { comp_unit; _ } ->
                not (String.equal comp_unit cmt.cmt_modname)
            | _ -> true
          in
          let expr sub e =
            (match e.exp_desc with
            | Texp_ident (_, _, vd) when foreign vd ->
                let uid = vd.val_uid in
                let outside, by_test =
                  Option.value (Hashtbl.find_opt uses uid)
                    ~default:(false, false)
                in
                Hashtbl.replace uses uid (outside || not test, by_test || test)
            | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args)
              when foreign vd ->
                List.iter
                  (function
                    | Asttypes.Optional l, Some a
                      when not a.exp_loc.Location.loc_ghost ->
                        Hashtbl.replace set (vd.val_uid, l) ()
                    | _ -> ())
                  args
            | _ -> ());
            Tast_iterator.default_iterator.expr sub e
          in
          let it = { Tast_iterator.default_iterator with expr } in
          it.structure it str
      | _ -> ())
    (walk root []);
  List.iter
    (fun dir ->
      let prefix = dir ^ "/" in
      if not (List.exists (String.starts_with ~prefix) !covered) then
        errors :=
          Printf.sprintf "required directory %s yielded no interfaces" dir
          :: !errors)
    required;
  List.iter (Printf.eprintf "check_exports: %s\n") (List.sort compare !errors);
  if !errors <> [] then exit 1;
  let exports =
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !exports
  in
  let section title keep =
    print_endline title;
    List.iter
      (fun (name, uid, _) ->
        if keep (Hashtbl.find_opt uses uid) then print_endline ("  " ^ name))
      exports
  in
  section "Exports no other module uses:" (( = ) None);
  section "Exports only test/ uses:" (( = ) (Some (false, true)));
  print_endline "Optional arguments no other module sets:";
  List.iter
    (fun (name, uid, ty) ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem set (uid, l)) then
            Printf.printf "  %s ?%s\n" name l)
        (optionals ty))
    exports
