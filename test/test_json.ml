(* The one JSON printer: every report is a [Vjson.t] printed by
   [Vjson.to_string], so its text is canonical (parse, then print again,
   gives the same bytes) and numbers keep their digits. *)

module A = Vanalysis

let slice = List.filteri (fun i _ -> i mod 10 = 0) Tsvc.Registry.kernels

let test_emitters_canonical () =
  let canonical label v =
    let s = Vjson.to_string v in
    Alcotest.(check string) label s (Vjson.to_string (Result.get_ok (Vjson.parse s)))
  in
  let each label to_json = List.iter (fun x -> canonical label (to_json x)) in
  canonical "diag" (A.Diag.to_json (A.Diag.warning ~pass:"p" ~kernel:"k" "a\t\"b\"\n"));
  each "lint" A.Driver.report_to_json (A.Driver.lint_kernels slice);
  each "deps" A.Depsreport.summary_to_json (A.Depsreport.summarize_kernels slice);
  each "effects" A.Effect.summary_to_json (A.Effect.analyze_kernels slice);
  each "absint" (fun k -> A.Absint.summary_to_json (A.Absint.analyze ~n:1024 k)) slice;
  each "opt" A.Opt.report_to_json (A.Opt.run_all slice);
  each "cert" (fun (_, c) -> A.Cert.to_json c) (A.Cert.certify_batch slice);
  canonical "loadtest"
    (Vserve.Loadtest.result_to_json
       (Vserve.Loadtest.run_sim ~seed:7 ~requests:100 ~servers:4 ~arrival_rate:600.0
          ~config:Vserve.Engine.default_config ()))

(* Region bounds are exact: at n = 2_000_000 the write region of s000 ends
   at 1999999, which 6-digit [%g] printed as 2e+06. *)
let test_effect_regions_exact () =
  let s = A.Effect.analyze ~n:2_000_000 (Tsvc.Registry.find_exn "s000").kernel in
  let v = Result.get_ok (Vjson.parse (Vjson.to_string (A.Effect.summary_to_json s))) in
  let upper =
    (match Vjson.member "effects" v with Some (Vjson.List l) -> l | _ -> [])
    |> List.find_map (fun e ->
           match Vjson.member "write_region" e with
           | Some (Vjson.List [ _; hi ]) -> Vjson.int hi
           | _ -> None)
  in
  Alcotest.(check (option int)) "write region upper bound" (Some 1999999) upper

let tests =
  [ Alcotest.test_case "every emitter prints canonical JSON" `Quick
      test_emitters_canonical;
    Alcotest.test_case "effect regions keep exact bounds" `Quick
      test_effect_regions_exact ]
