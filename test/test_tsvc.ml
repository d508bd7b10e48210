(* Tests for the TSVC suite itself: completeness, well-formedness and the
   structural properties the experiments rely on. *)

open Vir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_count () = check_int "151 loop patterns" 151 Tsvc.Registry.count

let test_unique_names () =
  let names = List.map (fun k -> k.Kernel.name) Tsvc.Registry.kernels in
  check_int "no duplicate names" 151 (List.length (List.sort_uniq compare names))

let test_all_valid () =
  List.iter
    (fun (e : Tsvc.Registry.entry) ->
      match Validate.errors e.kernel with
      | [] -> ()
      | errs ->
          Alcotest.failf "%s invalid: %s" e.kernel.Kernel.name
            (String.concat "; " errs))
    Tsvc.Registry.all

let test_all_have_descriptions () =
  check "every kernel describes its C source" true
    (List.for_all (fun k -> String.length k.Kernel.descr > 0) Tsvc.Registry.kernels)

let test_every_category_inhabited () =
  List.iter
    (fun c ->
      check
        (Printf.sprintf "category %s inhabited" (Tsvc.Category.to_string c))
        true
        (Tsvc.Registry.by_category c <> []))
    Tsvc.Category.all

let test_find () =
  check "find hit" true (Tsvc.Registry.find "s000" <> None);
  check "find miss" true (Tsvc.Registry.find "s999" = None);
  Alcotest.check_raises "find_exn miss"
    (Invalid_argument "Tsvc.Registry: unknown kernel s999") (fun () ->
      ignore (Tsvc.Registry.find_exn "s999"))

let test_vectorizable_fraction () =
  (* The suite must exercise both verdicts in a realistic proportion. *)
  let legal =
    List.length (List.filter Vdeps.Dependence.vectorizable Tsvc.Registry.kernels)
  in
  check "roughly three quarters vectorizable" true (legal >= 100 && legal <= 130)

let test_access_pattern_diversity () =
  let has pred =
    List.exists
      (fun (k : Kernel.t) ->
        List.exists
          (fun i ->
            match i with
            | Instr.Load { addr; _ } | Instr.Store { addr; _ } ->
                pred (Kernel.access_stride k addr)
            | _ -> false)
          k.Kernel.body)
      Tsvc.Registry.kernels
  in
  check "contiguous" true (has (fun s -> s = Kernel.Sconst 1));
  check "reverse" true (has (fun s -> s = Kernel.Sconst (-1)));
  check "strided" true
    (has (function Kernel.Sconst c -> abs c > 1 | _ -> false));
  check "row walks" true (has (function Kernel.Srow _ -> true | _ -> false));
  check "indirect" true (has (fun s -> s = Kernel.Sindirect))

let test_reduction_kernels_present () =
  let reds =
    List.filter (fun (k : Kernel.t) -> k.Kernel.reductions <> [])
      Tsvc.Registry.kernels
  in
  check "at least a dozen reductions" true (List.length reds >= 12)

let test_2d_kernels_present () =
  let twod =
    List.filter
      (fun (k : Kernel.t) -> List.length k.Kernel.loops = 2)
      Tsvc.Registry.kernels
  in
  check "2-d kernels present" true (List.length twod >= 15)

let test_known_kernels_shape () =
  let s000 = (Tsvc.Registry.find_exn "s000").kernel in
  check_int "s000: load, add, store" 3 (List.length s000.Kernel.body);
  let vdotr = (Tsvc.Registry.find_exn "vdotr").kernel in
  check_int "vdotr has one reduction" 1 (List.length vdotr.Kernel.reductions);
  let s116 = (Tsvc.Registry.find_exn "s116").kernel in
  check_int "s116 is 5-way unrolled" 5
    (List.length (List.filter Instr.is_store s116.Kernel.body))

let test_categories_match_tsvc_grouping () =
  let cat name = (Tsvc.Registry.find_exn name).category in
  check "s000 linear" true (cat "s000" = Tsvc.Category.Linear_dependence);
  check "s121 induction" true (cat "s121" = Tsvc.Category.Induction);
  check "s311 reduction" true (cat "s311" = Tsvc.Category.Reductions);
  check "s321 recurrence" true (cat "s321" = Tsvc.Category.Recurrences);
  check "vag basics" true (cat "vag" = Tsvc.Category.Vector_basics);
  check "s4112 indirect" true (cat "s4112" = Tsvc.Category.Indirect_addressing)

let test_default_n () =
  check_int "paper problem size" 32000 Tsvc.Registry.default_n

let tests =
  [ Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "unique names" `Quick test_unique_names;
    Alcotest.test_case "all valid" `Quick test_all_valid;
    Alcotest.test_case "descriptions" `Quick test_all_have_descriptions;
    Alcotest.test_case "categories inhabited" `Quick test_every_category_inhabited;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "vectorizable fraction" `Quick test_vectorizable_fraction;
    Alcotest.test_case "access diversity" `Quick test_access_pattern_diversity;
    Alcotest.test_case "reductions present" `Quick test_reduction_kernels_present;
    Alcotest.test_case "2-d present" `Quick test_2d_kernels_present;
    Alcotest.test_case "known shapes" `Quick test_known_kernels_shape;
    Alcotest.test_case "categories" `Quick test_categories_match_tsvc_grouping;
    Alcotest.test_case "default n" `Quick test_default_n ]
