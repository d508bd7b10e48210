(* vecmodel: command-line front end for the cost-model reproduction.

     vecmodel list [--category C]
     vecmodel show KERNEL [--asm] [--machine M]
     vecmodel lint [KERNEL | --all] [--transform T] [--vf N ...] [--json]
                   [--verbose]
     vecmodel deps [KERNEL | --all] [--json] [--crosscheck [--vf N ...]]
     vecmodel effects [KERNEL | --all] [--json] [--crosscheck [--vf N ...] | -n N]
     vecmodel absint KERNEL [--vf N] [-n N] [--json]
     vecmodel opt [KERNEL | --all] [--json] [--validate]
     vecmodel certify [KERNEL | --all] [--vf N] [--json] [--gate]
     vecmodel simulate KERNEL [--machine M] [-n N] [--transform T]
     vecmodel fit [--machine M] [--method m] [--features f] [--target t]
                  [--save FILE]
     vecmodel predict KERNEL --model FILE [--machine M] [-n N] [--transform T]
     vecmodel loocv [--machine M] [--method m] [--features f] [--target t]
     vecmodel report [EXPERIMENT ...]
     vecmodel cachestats
     vecmodel health [--repeats K] [--sanitize] [--json]
     vecmodel faults [--json]
     vecmodel serve [--socket PATH | --port PORT] [--model FILE]
     vecmodel loadtest [--connect PATH | --port PORT] [--requests N] [--json]
     vecmodel export-machine FILE [--machine M]

   The commands that build samples or serve also take --faults SPEC.
*)

open Cmdliner
open Costmodel

(* Every --json surface prints one {!Vjson} value on one line. *)
let print_json v = print_endline (Vjson.to_string v)

(* An error the input caused: one line on stderr, exit 1, nothing on
   stdout. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("vecmodel: " ^ msg);
      exit 1)
    fmt

let json_int n = Vjson.Num (float_of_int n)

let machine_names = List.map (fun m -> m.Vmachine.Descr.name) Vmachine.Machines.all

let machine_conv =
  let parse s =
    match Vmachine.Machines.by_name s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown machine %s (expected one of: %s)" s
                (String.concat ", " machine_names)))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt m.Vmachine.Descr.name)

let machine_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "machine-file" ] ~docv:"FILE"
        ~doc:"Load the machine model from a description file (vecmodel-machine v1).")

let machine_arg =
  let base =
    Arg.(
      value
      & opt machine_conv Vmachine.Machines.neon_a57
      & info [ "machine"; "m" ] ~docv:"MACHINE"
          ~doc:"Machine model: neon-a57, xeon-avx2, sve-256 or cortex-a53.")
  in
  let resolve m file =
    match file with
    | None -> m
    | Some path -> (
        match Vmachine.Config.load path with
        | Ok m' -> m'
        | Error e -> fail "--machine-file: %s" e)
  in
  Term.(const resolve $ base $ machine_file_arg)

let n_arg =
  Arg.(
    value
    & opt int Tsvc.Registry.default_n
    & info [ "n" ] ~docv:"N" ~doc:"Problem size (TSVC LEN).")

let transform_conv =
  let parse = function
    | "llv" -> Ok Dataset.Llv
    | "slp" -> Ok Dataset.Slp
    | s -> Error (`Msg (Printf.sprintf "unknown transform %s (llv|slp)" s))
  in
  Arg.conv
    (parse, fun fmt t -> Format.pp_print_string fmt (Dataset.transform_to_string t))

let transform_arg =
  Arg.(
    value
    & opt transform_conv Dataset.Llv
    & info [ "transform"; "t" ] ~docv:"T" ~doc:"Vectorization pass: llv or slp.")

let method_conv =
  let parse = function
    | "l2" -> Ok Linmodel.L2
    | "nnls" -> Ok Linmodel.Nnls
    | "svr" -> Ok Linmodel.Svr
    | "huber" -> Ok Linmodel.Huber
    | s -> Error (`Msg (Printf.sprintf "unknown method %s (l2|nnls|svr|huber)" s))
  in
  Arg.conv
    (parse, fun fmt m -> Format.pp_print_string fmt (Linmodel.fit_method_to_string m))

let method_arg =
  Arg.(
    value & opt method_conv Linmodel.Nnls
    & info [ "method" ] ~docv:"M"
        ~doc:"Fitting method: l2, nnls, svr or huber (robust IRLS).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the output as JSON on stdout.")

(* A vector factor below 2 is a usage error (exit 124), raised while the
   command line is parsed. *)
let vf_conv =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok vf when vf < 2 ->
        Error (`Msg (Printf.sprintf "vector factor %d must be >= 2" vf))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

(* The factors a validation matrix or a cross-check sweeps: [None] when no
   --vf is given (the default 2, 4 and 8). *)
let vfs_arg =
  let some = function [] -> None | vfs -> Some vfs in
  Term.(
    const some
    $ Arg.(
        value & opt_all vf_conv []
        & info [ "vf" ] ~docv:"N"
            ~doc:"Vectorization factor to check at (repeatable). Default: 2 4 8."))

(* --- kernels -----------------------------------------------------------------
   Names resolve while the command line is parsed, so an unknown kernel is a
   usage error (exit 124) before anything runs.  A registry is a
   description and its entries: effects, opt and certify also take the
   application kernels. *)

let tsvc_registry = ("the TSVC registry", Tsvc.Registry.all)

let full_registry =
  ( "the TSVC and application registries",
    Tsvc.Registry.all @ Vapps.Registry.as_tsvc_entries )

let kernel_conv (_, entries) =
  let parse name =
    match
      List.find_opt
        (fun (e : Tsvc.Registry.entry) ->
          String.equal e.kernel.Vir.Kernel.name name)
        entries
    with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown kernel %s (try `vecmodel list`)" name))
  in
  Arg.conv
    ( parse,
      fun fmt (e : Tsvc.Registry.entry) ->
        Format.pp_print_string fmt e.kernel.Vir.Kernel.name )

let kernel_arg registry =
  Arg.(
    required
    & pos 0 (some (kernel_conv registry)) None
    & info [] ~docv:"KERNEL" ~doc:"Kernel name, e.g. s000.")

(* The kernels named by KERNEL or --all; neither means all. *)
let kernels_arg ((name, entries) as registry) =
  let kernel =
    Arg.(
      value
      & pos 0 (some (kernel_conv registry)) None
      & info [] ~docv:"KERNEL" ~doc:"Kernel name, e.g. s000 (omit with --all).")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all"; "a" ] ~doc:(Printf.sprintf "Every kernel in %s." name))
  in
  let resolve kernel all =
    match (kernel, all) with
    | Some _, true -> Error "pass either KERNEL or --all, not both"
    | Some (e : Tsvc.Registry.entry), false -> Ok [ e.kernel ]
    | None, _ ->
        Ok (List.map (fun (e : Tsvc.Registry.entry) -> e.kernel) entries)
  in
  Term.(term_result' (const resolve $ kernel $ all))

(* --- fault plans ------------------------------------------------------------
   [--faults SPEC] overrides the [VECMODEL_FAULTS] environment plan for
   this invocation; an explicit empty spec ([--faults ""]) disables
   injection entirely. *)

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault-injection plan, e.g. \
           'seed=7;measure.nan=0.05;pool.crash=0.02'. Overrides \
           $(b,VECMODEL_FAULTS). See docs/ROBUSTNESS.md for the grammar.")

let apply_faults = function
  | None -> ()
  | Some spec -> (
      match Vfault.Plan.parse spec with
      | Ok p -> Vfault.Inject.set_active p
      | Error e ->
          Printf.eprintf "vecmodel: --faults: %s\n" e;
          exit 124)

(* --- sanitizer --------------------------------------------------------------
   [--sanitize] arms the shadow-state sanitizer for this invocation:
   checksums over the shared master buffers verified after every measured
   run and at pool join points, plus the interpreter's frozen-write
   barrier.  Equivalent to [VECMODEL_SANITIZE=1]. *)

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Enable the shadow-state sanitizer: shared master buffers are \
           checksum-verified after every measured run and at pool join \
           points, and writes to frozen buffers trap.  Equivalent to \
           $(b,VECMODEL_SANITIZE)=1.")

let apply_sanitize = function
  | true -> Vexec.Sanitize.set_enabled true
  | false -> ()  (* leave the VECMODEL_SANITIZE environment default *)

let features_conv =
  let parse = function
    | "raw" -> Ok Linmodel.Raw
    | "rated" -> Ok Linmodel.Rated
    | "extended" -> Ok Linmodel.Extended
    | "absint" -> Ok Linmodel.Absint
    | "opt" -> Ok Linmodel.Opt
    | "deps" -> Ok Linmodel.Deps
    | "cert" -> Ok Linmodel.Cert
    | s ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown feature kind %s (raw|rated|extended|absint|opt|deps|cert)"
               s))
  in
  Arg.conv
    (parse, fun fmt f -> Format.pp_print_string fmt (Linmodel.feature_kind_to_string f))

let features_arg =
  Arg.(
    value & opt features_conv Linmodel.Rated
    & info [ "features" ] ~docv:"F"
        ~doc:"Feature kind: raw, rated, extended, absint, opt, deps or cert.")

let target_conv =
  let parse = function
    | "speedup" -> Ok Linmodel.Speedup
    | "cost" -> Ok Linmodel.Cost
    | s -> Error (`Msg (Printf.sprintf "unknown target %s (speedup|cost)" s))
  in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Linmodel.target_to_string t))

let target_arg =
  Arg.(
    value & opt target_conv Linmodel.Speedup
    & info [ "target" ] ~docv:"T" ~doc:"Fit target: speedup or cost.")

(* --- list ----------------------------------------------------------------- *)

let list_cmd =
  let category =
    Arg.(
      value & opt (some string) None
      & info [ "category"; "c" ] ~docv:"CAT" ~doc:"Filter by category name.")
  in
  let run category =
    List.iter
      (fun (e : Tsvc.Registry.entry) ->
        let cat = Tsvc.Category.to_string e.category in
        if category = None || category = Some cat then begin
          let verdict =
            match Vdeps.Dependence.vf_limit e.kernel with
            | Vdeps.Dependence.Unlimited -> "vectorizable"
            | Vdeps.Dependence.Max_vf 1 -> "not vectorizable"
            | Vdeps.Dependence.Max_vf m -> Printf.sprintf "max VF %d" m
          in
          Printf.printf "%-10s %-22s %-16s %s\n" e.kernel.Vir.Kernel.name cat
            verdict e.kernel.Vir.Kernel.descr
        end)
      Tsvc.Registry.all;
    Printf.printf "%d kernels\n" Tsvc.Registry.count
  in
  Cmd.v (Cmd.info "list" ~doc:"List the TSVC kernels and their verdicts")
    Term.(const run $ category)

(* --- show ----------------------------------------------------------------- *)

let show_cmd =
  let asm_arg =
    Arg.(
      value & flag
      & info [ "asm" ] ~doc:"Also print pseudo-assembly (scalar and vectorized).")
  in
  let run (e : Tsvc.Registry.entry) asm machine =
    print_endline (Vir.Pp.kernel_to_string e.kernel);
    if asm then begin
      let style =
        if String.equal machine.Vmachine.Descr.name "xeon-avx2" then
          Vvect.Emit.Avx
        else Vvect.Emit.Neon
      in
      print_newline ();
      print_string (Vvect.Emit.scalar ~style e.kernel);
      let vf = Vmachine.Descr.vf_for_kernel machine e.kernel in
      match Vvect.Llv.vectorize ~vf e.kernel with
      | Ok vk ->
          print_newline ();
          print_string (Vvect.Emit.vector ~style vk)
      | Error err ->
          Printf.printf "\n; not vectorized: %s\n"
            (Vvect.Llv.error_to_string err)
    end;
    Printf.printf "category: %s\n" (Tsvc.Category.to_string e.category);
    (match Vvect.Interchange.enable_vectorization e.kernel with
    | Some _ ->
        print_endline "note: vectorizable after loop interchange"
    | None -> ());
    let deps = Vdeps.Dependence.analyze e.kernel in
    if deps = [] then print_endline "dependences: none"
    else begin
      print_endline "dependences:";
      List.iter
        (fun d -> Format.printf "  %a@." Vdeps.Dependence.pp_dep d)
        deps
    end;
    Format.printf "features: %a@." Feature.pp (Feature.counts e.kernel)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a kernel's IR, dependences and features")
    Term.(const run $ kernel_arg tsvc_registry $ asm_arg $ machine_arg)

(* --- lint ----------------------------------------------------------------- *)

let lint_cmd =
  let lint_transform_conv =
    let parse s =
      match Vanalysis.Driver.transform_of_string s with
      | Some t -> Ok t
      | None ->
          Error (`Msg (Printf.sprintf "unknown transform %s (llv|slp|unroll)" s))
    in
    Arg.conv
      ( parse,
        fun fmt t ->
          Format.pp_print_string fmt (Vanalysis.Driver.transform_to_string t) )
  in
  let transforms_arg =
    Arg.(
      value
      & opt_all lint_transform_conv []
      & info [ "transform"; "t" ] ~docv:"T"
          ~doc:
            "Validate only this transform (llv, slp or unroll; repeatable). \
             Default: all three.")
  in
  let verbose_flag =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Also print Info diagnostics and skipped configurations.")
  in
  let run kernels transforms vfs json verbose =
    let transforms = if transforms = [] then None else Some transforms in
    let reports =
      Vanalysis.Driver.lint_kernels ?transforms ?vfs kernels
    in
    if json then
      print_json (Vjson.List (List.map Vanalysis.Driver.report_to_json reports))
    else begin
      List.iter (Vanalysis.Driver.print_report ~verbose stdout) reports;
      Vanalysis.Driver.print_summary stdout reports
    end;
    if List.exists Vanalysis.Driver.has_errors reports then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis lints and the vector-IR validator over \
          kernels")
    Term.(
      const run $ kernels_arg tsvc_registry $ transforms_arg $ vfs_arg
      $ json_arg $ verbose_flag)

(* --- deps / effects ----------------------------------------------------------
   Each has a --crosscheck gate, one obligation of [Vanalysis.Crosscheck]
   swept over the kernels; --vf picks its factors, so --vf without
   --crosscheck is a usage error. *)

let crosscheck_arg ~doc =
  let flag = Arg.(value & flag & info [ "crosscheck" ] ~doc) in
  let pick crosscheck vfs =
    match (crosscheck, vfs) with
    | true, vfs -> Ok (Some vfs)
    | false, None -> Ok None
    | false, Some _ -> Error "--vf applies to --crosscheck only"
  in
  Term.(term_result' (const pick $ flag $ vfs_arg))

(* The gate's summary as text or JSON; exit 1 on any configuration that
   fails its obligation. *)
let crosscheck_gate obligation ?vfs ~json kernels =
  let module C = Vanalysis.Crosscheck in
  let configs = C.run obligation ?vfs kernels in
  if json then print_json (Vjson.Obj (C.summary_fields obligation configs))
  else C.print_summary obligation stdout configs;
  if not (C.sound configs) then exit 1

let deps_cmd =
  let crosscheck =
    crosscheck_arg
      ~doc:
        "Force LLV and SLP at every factor, bypassing the legality oracle, \
         and cross-check each verdict against the translation validator \
         plus the reference interpreter.  Exits 1 on any oracle-legal \
         configuration the validator refutes."
  in
  let run kernels json crosscheck =
    match crosscheck with
    | Some vfs -> crosscheck_gate Semantics ?vfs ~json kernels
    | None ->
        let summaries = Vanalysis.Depsreport.summarize_kernels kernels in
        if json then
          print_json
            (Vjson.List
               (List.map Vanalysis.Depsreport.summary_to_json summaries))
        else List.iter (Vanalysis.Depsreport.print_summary stdout) summaries
  in
  Cmd.v
    (Cmd.info "deps"
       ~doc:
         "Nest-wide dependence graph, idiom tags and the legality verdict \
          space; optionally cross-check the oracle against the validator")
    Term.(const run $ kernels_arg tsvc_registry $ json_arg $ crosscheck)

let effects_cmd =
  let crosscheck =
    crosscheck_arg
      ~doc:
        "Prove the effect summary stable under every LLV/SLP/unroll x VF \
         transform: the transformed kernel's effects must be statically \
         subsumed by the source summary, and for oracle-legal \
         configurations every access observed through the interpreter's \
         trace must hit a licensed (array, direction) inside its static \
         region.  Exits 1 on any escape."
  in
  let n_arg =
    Arg.(
      value & opt (some int) None
      & info [ "n" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Problem size the affine regions are computed at (not with \
                --crosscheck). Default: %d."
               Vanalysis.Absint.default_n))
  in
  let crosscheck_n =
    let pick crosscheck n =
      match (crosscheck, n) with
      | Some _, Some _ -> Error "-n applies to the summaries, not --crosscheck"
      | _ -> Ok (crosscheck, Option.value n ~default:Vanalysis.Absint.default_n)
    in
    Term.(term_result' (const pick $ crosscheck $ n_arg))
  in
  let run kernels json (crosscheck, n) =
    match crosscheck with
    | Some vfs -> crosscheck_gate Effects ?vfs ~json kernels
    | None ->
        let summaries = Vanalysis.Effect.analyze_kernels ~n kernels in
        if json then
          print_json
            (Vjson.List (List.map Vanalysis.Effect.summary_to_json summaries))
        else List.iter (Vanalysis.Effect.print_summary stdout) summaries
  in
  Cmd.v
    (Cmd.info "effects"
       ~doc:
         "Per-array may-read/may-write effect summaries with affine \
          regions and buffer ownership; optionally cross-check stability \
          under every transform x VF against observed access traces")
    Term.(const run $ kernels_arg full_registry $ json_arg $ crosscheck_n)

(* --- absint ------------------------------------------------------------------ *)

let absint_cmd =
  let vf_arg =
    Arg.(
      value & opt (some vf_conv) None
      & info [ "vf" ] ~docv:"N"
          ~doc:
            "Vector factor for the alignment classification (>= 2).  Without \
             it no alignment is claimed and unit strides print as unaligned.")
  in
  let absint_n_arg =
    Arg.(
      value & opt int Vanalysis.Absint.default_n
      & info [ "n" ] ~docv:"N" ~doc:"Problem size to analyze at.")
  in
  let run (entry : Tsvc.Registry.entry) vf n json =
    let summary = Vanalysis.Absint.analyze ?vf ~n entry.kernel in
    if json then print_json (Vanalysis.Absint.summary_to_json summary)
    else Vanalysis.Absint.print_summary summary
  in
  Cmd.v
    (Cmd.info "absint"
       ~doc:
         "Abstract interpretation of one kernel: register value ranges, \
          per-access alignment congruences and trip-count facts")
    Term.(
      const run $ kernel_arg tsvc_registry $ vf_arg $ absint_n_arg $ json_arg)

(* --- opt -------------------------------------------------------------------- *)

let opt_cmd =
  let validate_flag =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Also check every pass against the reference interpreter and \
             exit 1 on any semantic diff.")
  in
  let run ks json validate =
    let reports = Vanalysis.Opt.run_all ks in
    if json then
      print_json (Vjson.List (List.map Vanalysis.Opt.report_to_json reports))
    else List.iter (Vanalysis.Opt.print_report stdout) reports;
    if validate then begin
      let diags = List.concat (Vanalysis.Opt.validate_all ks) in
      List.iter
        (fun d -> Printf.eprintf "%s\n" (Vanalysis.Diag.to_string d))
        diags;
      if diags <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:
         "Run the SSA optimization pipeline on kernels: per-pass instruction \
          deltas and the before/after instruction-class mix")
    Term.(const run $ kernels_arg full_registry $ json_arg $ validate_flag)

(* --- certify ---------------------------------------------------------------- *)

let certify_cmd =
  let vf_arg =
    Arg.(
      value & opt vf_conv Vanalysis.Cert.default_vf
      & info [ "vf" ] ~docv:"N"
          ~doc:"Vector factor for the alignment annotations. Default: 4.")
  in
  let gate_flag =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Run the soundness gate: hold every guard-free certificate to \
             the bind-time bounds proof and its closure run to the \
             reference interpreter, enforce the certified-fraction floor, \
             and require the static certificates to beat the bind-time \
             interval check. Exit 1 on any failure.")
  in
  let run kernels vf json gate =
    let ks =
      List.sort (fun (a : Vir.Kernel.t) b -> String.compare a.name b.name)
        kernels
    in
    let pairs = Vanalysis.Cert.certify_batch ~vf ks in
    if json then
      print_json
        (Vjson.List (List.map (fun (_, c) -> Vanalysis.Cert.to_json c) pairs))
    else begin
      List.iter
        (fun ((k : Vir.Kernel.t), (c : Vanalysis.Cert.t)) ->
          Printf.printf "%s: %s, %d/%d certified (bind-time %d)\n" k.name
            (if c.ct_guard_free then "guard-free" else "guarded")
            c.ct_safe
            (Array.length c.ct_accesses)
            (Vanalysis.Cert.bind_time_guard_free k);
          Array.iter
            (fun (a : Vanalysis.Cert.access_cert) ->
              Printf.printf "  [%d] %s %s%s: %s, %s - %s\n" a.ac_id
                (if a.ac_store then "store" else "load")
                a.ac_array
                (if a.ac_indirect then " (indirect)" else "")
                (Vanalysis.Cert.verdict_to_string a.ac_verdict)
                (Vanalysis.Cert.align_to_string a.ac_align)
                a.ac_reason)
            c.ct_accesses)
        pairs;
      let total =
        List.fold_left
          (fun n (_, (c : Vanalysis.Cert.t)) ->
            n + Array.length c.ct_accesses)
          0 pairs
      in
      let safe =
        List.fold_left
          (fun n (_, (c : Vanalysis.Cert.t)) -> n + c.ct_safe)
          0 pairs
      in
      Printf.printf "certified %d/%d accesses across %d kernels\n" safe total
        (List.length pairs)
    end;
    if gate then begin
      let g = Vanalysis.Cert.gate pairs in
      Printf.eprintf
        "certify gate: %d kernels, %d/%d accesses certified, %d guard-free, \
         bind-time baseline %d\n"
        g.g_kernels g.g_safe g.g_accesses g.g_guard_free g.g_bind_time;
      List.iter (fun m -> Printf.eprintf "certify gate: FAIL: %s\n" m)
        g.g_failures;
      if not (Vanalysis.Cert.gate_pass g) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Emit static safety certificates: relational bounds verdicts per \
          access, the guard-free flag, and the soundness gate")
    Term.(
      const run $ kernels_arg full_registry $ vf_arg $ json_arg $ gate_flag)

(* --- simulate --------------------------------------------------------------- *)

let simulate_cmd =
  let run (e : Tsvc.Registry.entry) machine n transform faults =
    apply_faults faults;
    let vf = Vmachine.Descr.vf_for_kernel machine e.kernel in
    let vk =
      match transform with
      | Dataset.Llv -> (
          match Vvect.Llv.vectorize ~vf e.kernel with
          | Ok vk -> vk
          | Error err ->
              fail "%s: %s" e.kernel.Vir.Kernel.name
                (Vvect.Llv.error_to_string err))
      | Dataset.Slp -> (
          match Vvect.Slp.vectorize ~vf e.kernel with
          | Ok vk -> vk
          | Error err ->
              fail "%s: %s" e.kernel.Vir.Kernel.name
                (Vvect.Slp.error_to_string err))
    in
    let m = Vmachine.Measure.measure machine ~n vk in
    Printf.printf "kernel %s on %s (%s, VF %d, n = %d)\n"
      e.kernel.Vir.Kernel.name machine.Vmachine.Descr.name
      (Dataset.transform_to_string transform)
      vf n;
    Printf.printf "  scalar cycles   %14.0f\n" m.Vmachine.Measure.scalar_cycles;
    Printf.printf "  vector cycles   %14.0f\n" m.Vmachine.Measure.vector_cycles;
    Printf.printf "  measured speedup %13.2f\n" m.Vmachine.Measure.speedup;
    Printf.printf "  baseline estimate %12.2f\n" (Baseline.predicted_speedup vk)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Measure one kernel on a machine model")
    Term.(
      const run $ kernel_arg tsvc_registry $ machine_arg $ n_arg
      $ transform_arg $ faults_arg)

(* --- fit / loocv --------------------------------------------------------------- *)

let print_eval label (e : Metrics.eval) =
  Printf.printf "%s: r=%.3f rho=%.3f rmse=%.3f fp=%d fn=%d acc=%.2f\n" label
    e.pearson e.spearman e.rmse e.confusion.Vstats.Confusion.fp
    e.confusion.Vstats.Confusion.fn
    (Vstats.Confusion.accuracy e.confusion)

let build_samples machine transform n =
  Dataset.build ~machine ~transform ~n Tsvc.Registry.all

let save_arg =
  Arg.(
    value & opt (some string) None
    & info [ "save" ] ~docv:"FILE" ~doc:"Write the fitted model to FILE.")

let fit_cmd =
  let run machine n transform method_ features target save faults =
    apply_faults faults;
    let samples = build_samples machine transform n in
    let m = Linmodel.fit ~method_ ~features ~target samples in
    (match save with
    | Some path ->
        Linmodel.save m path;
        Printf.printf "model written to %s\n" path
    | None -> ());
    Printf.printf "fitted %s / %s features / %s target on %d kernels (%s, %s)\n"
      (Linmodel.fit_method_to_string method_)
      (Linmodel.feature_kind_to_string features)
      (Linmodel.target_to_string target)
      (List.length samples)
      machine.Vmachine.Descr.name
      (Dataset.transform_to_string transform);
    print_endline "weights:";
    List.iteri
      (fun i name ->
        if m.Linmodel.weights.(i) <> 0.0 then
          Printf.printf "  %-14s %10.4f\n" name m.Linmodel.weights.(i))
      (Linmodel.names_of_kind features);
    print_eval "in-sample" (Metrics.evaluate ~predicted:(Linmodel.predict_all m samples) samples);
    print_eval "baseline " (Metrics.evaluate ~predicted:(Dataset.baseline_array samples) samples)
  in
  Cmd.v (Cmd.info "fit" ~doc:"Fit a cost model and print weights and metrics")
    Term.(
      const run $ machine_arg $ n_arg $ transform_arg $ method_arg
      $ features_arg $ target_arg $ save_arg $ faults_arg)

(* --- predict ------------------------------------------------------------------- *)

let predict_cmd =
  let model_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "model" ] ~docv:"FILE" ~doc:"Model file written by fit --save.")
  in
  let run (entry : Tsvc.Registry.entry) model_path machine n transform =
    match Linmodel.load model_path with
    | Error e -> fail "--model: %s" e
    | Ok m -> (
        match Dataset.build ~machine ~transform ~n [ entry ] with
        | [ sample ] ->
            Printf.printf "kernel %s: predicted speedup %.2f (measured %.2f)\n"
              entry.kernel.Vir.Kernel.name (Linmodel.predict m sample)
              sample.Dataset.measured
        | _ ->
            fail "%s: not vectorizable by this transform"
              entry.kernel.Vir.Kernel.name)
  in
  Cmd.v
    (Cmd.info "predict" ~doc:"Predict one kernel's speedup with a saved model")
    Term.(
      const run $ kernel_arg tsvc_registry $ model_arg $ machine_arg $ n_arg
      $ transform_arg)

let loocv_cmd =
  let run machine n transform method_ features target faults =
    apply_faults faults;
    let samples = build_samples machine transform n in
    let predicted = Crossval.loocv ~method_ ~features ~target samples in
    print_eval "loocv    " (Metrics.evaluate ~predicted samples);
    print_eval "baseline " (Metrics.evaluate ~predicted:(Dataset.baseline_array samples) samples)
  in
  Cmd.v
    (Cmd.info "loocv" ~doc:"Leave-one-out cross-validation of a cost model")
    Term.(
      const run $ machine_arg $ n_arg $ transform_arg $ method_arg
      $ features_arg $ target_arg $ faults_arg)

(* --- report ---------------------------------------------------------------------- *)

let experiment_ids =
  String.concat ", "
    (List.map (fun (e : Experiment.entry) -> e.id) Experiment.registry)

(* Ids resolve while the command line is parsed, so an unknown one is a
   usage error (exit 124) before any experiment runs. *)
let experiment_conv =
  let parse s =
    match Experiment.find s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown experiment %s (expected one of: %s)" s
                experiment_ids))
  in
  Arg.conv
    (parse, fun fmt (e : Experiment.entry) -> Format.pp_print_string fmt e.id)

let report_cmd =
  let which =
    Arg.(
      value
      & pos_all experiment_conv []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("Experiment ids, any case; all of them when none is given: "
           ^ experiment_ids ^ "."))
  in
  let run which faults =
    apply_faults faults;
    let entries = match which with [] -> Experiment.registry | l -> l in
    List.iter
      (fun (e : Experiment.entry) -> Experiment.print (e.run ()))
      entries
  in
  Cmd.v (Cmd.info "report" ~doc:"Reproduce the paper's tables and figures")
    Term.(const run $ which $ faults_arg)

(* --- cachestats ------------------------------------------------------------ *)

let cachestats_cmd =
  let run () =
    Dataset.cache_clear ();
    Experiment.loocv_cache_clear ();
    (* The registry reuses a few (machine, transform) sample sets, so most
       of its builds should hit the cache. *)
    List.iter
      (fun (e : Experiment.entry) ->
        ignore (e.run ());
        let s = Dataset.cache_stats () in
        Printf.printf "after %-3s  %6d hits %6d misses %6d entries\n" e.id
          s.Dataset.hits s.Dataset.misses s.Dataset.entries)
      Experiment.registry;
    Printf.printf "domain pool: %d worker(s)\n" (Vpar.Pool.default_size ());
    let s = Dataset.cache_stats () in
    Printf.printf
      "sample cache: %d hits, %d misses (%.1f%% hit rate), %d live entries\n"
      s.Dataset.hits s.Dataset.misses
      (100.0 *. float_of_int s.Dataset.hits
      /. float_of_int (s.Dataset.hits + s.Dataset.misses))
      s.Dataset.entries;
    (match Dataset.cache_backends () with
    | [] -> ()
    | per_backend ->
        print_endline "samples by execution backend:";
        List.iter
          (fun (b, count) -> Printf.printf "  %-8s %6d sample(s)\n" b count)
          per_backend);
    let x = Dataset.exec_stats () in
    Printf.printf "executions: %d of %d lookups ran, %d memo hits\n"
      x.Dataset.misses (x.Dataset.hits + x.Dataset.misses) x.Dataset.hits;
    let l = Experiment.loocv_cache_stats () in
    Printf.printf "loocv cache: %d hits, %d misses, %d prediction vectors\n"
      l.Dataset.hits l.Dataset.misses l.Dataset.entries
  in
  Cmd.v
    (Cmd.info "cachestats"
       ~doc:
         "Run every registry experiment against the shared sample cache and \
          report hit/miss counters, the per-backend sample breakdown and \
          how many kernel executions ran")
    Term.(const run $ const ())

(* --- health ----------------------------------------------------------------- *)

(* The serving tier in [health]: offline from the serving journal (last
   checkpointed counters, reload count, last-reload model checksum), or
   live from a running daemon's [health] op (queue bound, breaker states,
   current model digest).  Either flag skips the dataset build — serving
   health must be readable without measuring 151 kernels. *)
let serve_health_offline path json =
  let j = Checkpoint.Journal.load path in
  match Checkpoint.Journal.find j "serve-stats" with
  | None ->
      if json then
        print_json
          Vjson.(
            Obj [ ("serving", Obj [ ("journal", Str path); ("present", Bool false) ]) ])
      else Printf.printf "serving: no checkpoint in journal %s\n" path
  | Some payload -> (
      match Vjson.parse payload with
      | Error e ->
          Printf.eprintf "serving: corrupt journal payload: %s\n" e;
          exit 1
      | Ok v ->
          if json then
            let serving =
              [ ("journal", Vjson.Str path); ("present", Vjson.Bool true);
                ("checkpoint", v) ]
            in
            print_json (Vjson.Obj [ ("serving", Vjson.Obj serving) ])
          else begin
            let geti k = Option.value ~default:0 (Vjson.mem_int k v) in
            let gets k = Option.value ~default:"-" (Vjson.mem_str k v) in
            Printf.printf "serving (journal %s, last checkpoint):\n" path;
            Printf.printf "  received          %d\n" (geti "received");
            Printf.printf "  answered          %d\n" (geti "answered");
            Printf.printf
              "  rejected          %d overload, %d rate, %d bad, %d deadline, \
               %d dropped\n"
              (geti "rejected_overload") (geti "rejected_rate")
              (geti "rejected_bad") (geti "deadline_errors") (geti "dropped");
            Printf.printf "  degraded          %d baseline, %d lint-skipped, %d partial\n"
              (geti "degraded_baseline") (geti "degraded_lint_skipped")
              (geti "partials");
            Printf.printf "  reloads           %d ok, %d rejected\n"
              (geti "reloads") (geti "reloads_rejected");
            Printf.printf "  model             %s (generation %d, origin %s)\n"
              (gets "model_digest") (geti "generation") (gets "model_origin")
          end)

let serve_health_live path json =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "serving: cannot connect to %s: %s\n" path
        (Unix.error_message e);
      exit 1
  | () ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let line =
            Vserve.Proto.request_to_line
              { Vserve.Proto.rq_id = "health"; rq_client = "health-cli";
                rq_op = Vserve.Proto.Health }
            ^ "\n"
          in
          let buf = Bytes.create 65536 in
          let b = Buffer.create 1024 in
          let rec read_line () =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> Buffer.contents b
            | k ->
                Buffer.add_subbytes b buf 0 k;
                if String.contains (Buffer.contents b) '\n' then
                  List.hd (String.split_on_char '\n' (Buffer.contents b))
                else read_line ()
          in
          (* A daemon that hangs up unanswered is a bad response, not a
             SIGPIPE or an uncaught Unix error. *)
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          let reply =
            match
              ignore (Unix.write_substring fd line 0 (String.length line));
              read_line ()
            with
            | r -> Ok r
            | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          in
          match Result.bind reply Vjson.parse with
          | Error e ->
              Printf.eprintf "serving: bad health response: %s\n" e;
              exit 1
          | Ok v when json -> print_json (Vjson.Obj [ ("serving", v) ])
          | Ok v ->
              let gets k = Option.value ~default:"-" (Vjson.mem_str k v) in
              let geti k = Option.value ~default:0 (Vjson.mem_int k v) in
              Printf.printf "serving (live, %s):\n" path;
              Printf.printf "  status            %s\n" (gets "status");
              Printf.printf "  queue limit       %d\n" (geti "queue_limit");
              (match Vjson.member "breakers" v with
              | Some (Vjson.Obj bs) ->
                  List.iter
                    (fun (name, bv) ->
                      let trips =
                        Option.value ~default:0 (Vjson.mem_int "trips" bv)
                      in
                      Printf.printf "  breaker %-9s %s (%d trip%s)\n" name
                        (Option.value ~default:"?" (Vjson.mem_str "state" bv))
                        trips
                        (if trips = 1 then "" else "s"))
                    bs
              | _ -> ());
              Printf.printf "  reloads           %d ok, %d rejected\n"
                (geti "reloads") (geti "reloads_rejected");
              Printf.printf "  model             %s (generation %d, origin %s)\n"
                (gets "model") (geti "generation") (gets "origin");
              (match Vjson.member "stats" v with
              | Some s ->
                  Printf.printf "  received          %d\n"
                    (Option.value ~default:0 (Vjson.mem_int "received" s));
                  Printf.printf "  answered          %d\n"
                    (Option.value ~default:0 (Vjson.mem_int "answered" s))
              | None -> ()))

let health_cmd =
  let repeats_arg =
    Arg.(
      value & opt int 1
      & info [ "repeats" ] ~docv:"K"
          ~doc:
            "Measure each kernel K times; repeats outside 3.5 normalized \
             MADs of the median are rejected and counted.")
  in
  let serve_journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "serve-journal" ] ~docv:"FILE"
          ~doc:
            "Report the serving tier from its stats journal (last \
             checkpointed counters, reload count, last-reload model \
             checksum) instead of building the dataset.")
  in
  let serve_connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "serve-connect" ] ~docv:"PATH"
          ~doc:
            "Query a running daemon's health op at this Unix socket (live \
             queue bound, breaker states, model digest) instead of \
             building the dataset.")
  in
  let run machine n transform repeats faults sanitize json serve_journal
      serve_connect =
    apply_faults faults;
    apply_sanitize sanitize;
    (match (serve_journal, serve_connect) with
    | Some path, _ ->
        serve_health_offline path json;
        exit 0
    | None, Some path ->
        serve_health_live path json;
        exit 0
    | None, None -> ());
    Dataset.health_reset ();
    Vpar.Pool.reset_stats ();
    Vfault.Inject.reset_counts ();
    let samples =
      Dataset.build ~repeats ~machine ~transform ~n Tsvc.Registry.all
    in
    let h = Dataset.health () in
    let st = Vpar.Pool.stats () in
    let injected = Vfault.Inject.counts () in
    let plan = Vfault.Inject.active () in
    if json then
      let quarantined (q : Dataset.quarantine) =
        Vjson.(
          Obj
            [ ("kernel", Str q.q_name); ("machine", Str q.q_machine);
              ("transform", Str q.q_transform); ("reason", Str q.q_reason) ])
      in
      print_json
        Vjson.(
          Obj
            [ ("plan", Str (Vfault.Plan.to_string plan));
              ("samples", json_int (List.length samples));
              ("quarantined", List (List.map quarantined h.h_quarantined));
              ("cache_corruptions", json_int h.h_cache_corruptions);
              ("repeats_rejected", json_int h.h_repeats_rejected);
              ( "pool",
                Obj
                  [ ("crashes", json_int st.st_crashes);
                    ("respawned", json_int st.st_respawned);
                    ("timeouts", json_int st.st_timeouts);
                    ("retries", json_int st.st_retries);
                    ("failures", json_int st.st_failures);
                    ("degraded", json_int st.st_degraded) ] );
              ("injected", Obj (List.map (fun (k, v) -> (k, json_int v)) injected));
              ( "sanitizer",
                Obj
                  [ ("active", Bool (Vexec.Sanitize.active ()));
                    ("shadowed", json_int (Vexec.Sanitize.shadowed ()));
                    ("verifications", json_int (Vexec.Sanitize.verification_count ()));
                    ("corruptions", json_int (Vexec.Sanitize.corruption_count ())) ] ) ])
    else begin
      Printf.printf "health: %s / %s, n = %d, repeats = %d\n"
        machine.Vmachine.Descr.name
        (Dataset.transform_to_string transform)
        n repeats;
      Printf.printf "  fault plan        %s\n"
        (if Vfault.Plan.is_empty plan then "(none)"
         else Vfault.Plan.to_string plan);
      Printf.printf "  samples built     %d\n" (List.length samples);
      Printf.printf "  quarantined       %d\n" (List.length h.h_quarantined);
      List.iter
        (fun (q : Dataset.quarantine) ->
          Printf.printf "    %-10s %s/%s: %s\n" q.q_name q.q_machine
            q.q_transform q.q_reason)
        h.h_quarantined;
      Printf.printf "  cache corruptions %d (detected and rebuilt)\n"
        h.h_cache_corruptions;
      Printf.printf "  repeats rejected  %d\n" h.h_repeats_rejected;
      Printf.printf
        "  pool: %d crash(es), %d respawned, %d timeout(s), %d retr%s, %d \
         failure(s), %d degraded run(s)\n"
        st.st_crashes st.st_respawned st.st_timeouts st.st_retries
        (if st.st_retries = 1 then "y" else "ies")
        st.st_failures st.st_degraded;
      if injected <> [] then begin
        print_endline "  injected faults:";
        List.iter
          (fun (k, v) -> Printf.printf "    %-16s %d\n" k v)
          injected
      end;
      if Vexec.Sanitize.active () then
        Printf.printf
          "  sanitizer         %d master(s) shadowed, %d verification(s), \
           %d corruption(s)\n"
          (Vexec.Sanitize.shadowed ())
          (Vexec.Sanitize.verification_count ())
          (Vexec.Sanitize.corruption_count ())
    end
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Build the registry-wide dataset under the active fault plan and \
          print the quarantine ledger, pool supervision and injection \
          counters")
    Term.(
      const run $ machine_arg $ n_arg $ transform_arg $ repeats_arg
      $ faults_arg $ sanitize_arg $ json_arg
      $ serve_journal_arg $ serve_connect_arg)

(* --- faults ----------------------------------------------------------------- *)

let faults_cmd =
  let run faults json =
    apply_faults faults;
    let plan = Vfault.Inject.active () in
    let source =
      if faults <> None then "--faults"
      else if Sys.getenv_opt Vfault.Inject.env_var <> None then
        Vfault.Inject.env_var
      else "(none)"
    in
    if json then
      let clause (c : Vfault.Plan.clause) =
        Vjson.(
          Obj
            [ ("site", Str (Vfault.Plan.site_to_string c.site));
              ("kind", Str (Vfault.Plan.kind_to_string c.kind));
              ("rate", Num c.rate); ("magnitude", Num c.magnitude) ])
      in
      print_json
        Vjson.(
          Obj
            [ ("source", Str source); ("spec", Str (Vfault.Plan.to_string plan));
              ("seed", json_int plan.Vfault.Plan.seed);
              ("clauses", List (List.map clause plan.Vfault.Plan.clauses)) ])
    else if Vfault.Plan.is_empty plan then
      Printf.printf
        "no fault plan active (set %s or pass --faults SPEC; grammar in \
         docs/ROBUSTNESS.md)\n"
        Vfault.Inject.env_var
    else begin
      Printf.printf "fault plan (%s): %s\n" source (Vfault.Plan.to_string plan);
      Printf.printf "  seed %d\n" plan.Vfault.Plan.seed;
      List.iter
        (fun (c : Vfault.Plan.clause) ->
          let unit_ =
            match c.kind with
            | Vfault.Plan.Spike -> " (spike multiplier)"
            | Vfault.Plan.Hang -> " (simulated seconds)"
            | _ -> ""
          in
          Printf.printf "  %s.%s: rate %g, magnitude %g%s\n"
            (Vfault.Plan.site_to_string c.site)
            (Vfault.Plan.kind_to_string c.kind)
            c.rate c.magnitude unit_)
        plan.Vfault.Plan.clauses
    end
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Show the active fault-injection plan (from --faults or \
          VECMODEL_FAULTS) in canonical form")
    Term.(const run $ faults_arg $ json_arg)

(* --- serve / loadtest -------------------------------------------------------
   The serving tier: [serve] runs the daemon, [loadtest] either drives
   the deterministic virtual-time simulation (the bench/CI mode) or
   streams requests to a running daemon over its socket, never more
   unanswered than the daemon's queue limit. *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default vecmodel.sock).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Serve on loopback TCP instead of a Unix socket.")

let transport_of socket port =
  match (socket, port) with
  | _, Some p -> Vserve.Server.Tcp p
  | Some s, None -> Vserve.Server.Unix_path s
  | None, None -> Vserve.Server.Unix_path "vecmodel.sock"

let model_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "model" ] ~docv:"FILE"
        ~doc:
          "Fitted model checkpoint to serve (validated against the \
           configured feature set; a rejected model falls back to the \
           baseline).")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission bound: requests queued beyond N are rejected.")

let deadline_arg =
  Arg.(
    value & opt float 0.02
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Cooperative per-request budget in virtual seconds; expiry after \
           the decision yields a partial answer, before it an explicit \
           rejection.")

let rate_limit_arg =
  Arg.(
    value & opt float 200.0
    & info [ "rate-limit" ] ~docv:"TOKENS"
        ~doc:
          "Per-client token-bucket rate (tokens per virtual second); 0 \
           disables rate limiting.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Serving-stats journal: counters checkpoint here periodically \
           and are replayed on restart (crash-only recovery).")

let serve_engine_config machine features model queue deadline rate journal =
  { Vserve.Engine.default_config with
    machine; features; model_path = model; queue_limit = queue;
    deadline_s = deadline; rate; journal_path = journal }

let serve_cmd =
  let run machine features model queue deadline rate journal socket port
      faults =
    apply_faults faults;
    let cfg =
      serve_engine_config machine features model queue deadline rate journal
    in
    let engine = Vserve.Engine.create cfg in
    Vserve.Server.run ~engine (transport_of socket port)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the prediction daemon: newline-delimited JSON over a Unix or \
          loopback TCP socket (ops: predict, lint, certify, health, stats, \
          reload, shutdown), with bounded admission, per-client rate \
          limits, cooperative deadlines, per-stage circuit breakers and \
          validated hot model reload")
    Term.(
      const run $ machine_arg $ features_arg $ model_arg $ queue_arg
      $ deadline_arg $ rate_limit_arg $ journal_arg $ socket_arg $ port_arg
      $ faults_arg)

let loadtest_cmd =
  let requests_arg =
    Arg.(
      value & opt int 400
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to send.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Arrival-process seed of the simulation.")
  in
  let servers_arg =
    Arg.(
      value & opt int 2
      & info [ "servers" ] ~docv:"K"
          ~doc:"Virtual servers in the simulation (independent of \
                $(b,VECMODEL_JOBS): results are byte-stable across worker \
                counts).")
  in
  let arrival_arg =
    Arg.(
      value & opt float 300.0
      & info [ "arrival-rate" ] ~docv:"R"
          ~doc:"Arrivals per virtual second in the simulation.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:
            "Stream requests to a running daemon at this Unix socket \
             instead of simulating (wall-clock mode), at most its queue \
             limit unanswered.")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"After the stream, ask the daemon to shut down cleanly.")
  in
  let p99_arg =
    Arg.(
      value & opt float 0.5
      & info [ "p99-bound" ] ~docv:"SECONDS"
          ~doc:"Gate: fail when the p99 sojourn exceeds this bound.")
  in
  let expect_degraded_flag =
    Arg.(
      value & flag
      & info [ "expect-degraded" ]
          ~doc:
            "Gate: fail unless at least one answer was served in a \
             degraded mode (chaos runs).")
  in
  let expect_clean_flag =
    Arg.(
      value & flag
      & info [ "expect-clean" ]
          ~doc:
            "Gate: fail when any fault was injected during the run (with \
             $(b,--connect) or $(b,--port), as the daemon's stats op \
             counts them).  CI inverts this under a seeded plan to prove \
             injected faults are reported, not swallowed.")
  in
  let run machine features model queue deadline rate journal requests seed
      servers arrival connect port shutdown json p99 expect_degraded
      expect_clean faults =
    apply_faults faults;
    let finish (r : Vserve.Loadtest.result) =
      if json then print_json (Vserve.Loadtest.result_to_json r)
      else print_string (Vserve.Loadtest.result_to_string r);
      let gate =
        Vserve.Loadtest.gate ~p99_bound:p99 ~expect_degraded:expect_degraded r
      in
      let clean_violation =
        expect_clean && r.Vserve.Loadtest.lt_injected <> []
      in
      (match gate with
      | Ok () -> ()
      | Error ps ->
          List.iter (fun p -> Printf.eprintf "loadtest gate: %s\n" p) ps);
      if clean_violation then
        Printf.eprintf "loadtest gate: expected a clean run but faults were \
                        injected (%s)\n"
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                r.Vserve.Loadtest.lt_injected));
      if gate <> Ok () || clean_violation then exit 1
    in
    match (connect, port) with
    | Some path, _ -> (
        match
          Vserve.Loadtest.run_socket ~requests ~shutdown
            (Vserve.Server.Unix_path path)
        with
        | Ok r -> finish r
        | Error m ->
            Printf.eprintf "loadtest: %s\n" m;
            exit 1)
    | None, Some p -> (
        match
          Vserve.Loadtest.run_socket ~requests ~shutdown
            (Vserve.Server.Tcp p)
        with
        | Ok r -> finish r
        | Error m ->
            Printf.eprintf "loadtest: %s\n" m;
            exit 1)
    | None, None ->
        let cfg =
          serve_engine_config machine features model queue deadline rate
            journal
        in
        finish
          (Vserve.Loadtest.run_sim ~seed ~requests ~servers
             ~arrival_rate:arrival ~config:cfg ())
  in
  Cmd.v
    (Cmd.info "loadtest"
       ~doc:
         "Load-test the serving tier: a deterministic virtual-time \
          simulation (default; byte-stable p50/p99/qps for bench and CI) \
          or a real client against a running daemon (--connect/--port)")
    Term.(
      const run $ machine_arg $ features_arg $ model_arg $ queue_arg
      $ deadline_arg $ rate_limit_arg $ journal_arg $ requests_arg $ seed_arg
      $ servers_arg $ arrival_arg $ connect_arg $ port_arg $ shutdown_flag
      $ json_arg $ p99_arg $ expect_degraded_flag $ expect_clean_flag
      $ faults_arg)

(* --- export-machine -------------------------------------------------------- *)

let export_machine_cmd =
  let out_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output path for the machine description.")
  in
  let run machine out =
    Vmachine.Config.save machine out;
    Printf.printf "wrote %s (%s) - edit and load with --machine-file\n" out
      machine.Vmachine.Descr.name
  in
  Cmd.v
    (Cmd.info "export-machine"
       ~doc:"Write a machine model to an editable description file")
    Term.(const run $ machine_arg $ out_arg)

let () =
  let doc = "Cost modelling for vectorization on ARM - reproduction toolkit" in
  let info = Cmd.info "vecmodel" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ list_cmd; show_cmd; lint_cmd; deps_cmd; effects_cmd; absint_cmd; opt_cmd; certify_cmd; simulate_cmd; fit_cmd;
        predict_cmd; loocv_cmd; report_cmd; cachestats_cmd; health_cmd;
        faults_cmd; serve_cmd; loadtest_cmd; export_machine_cmd ]
  in
  (* Sanitizer verdicts are hard failures, not internal errors: report the
     site and offending buffer the way the lint driver reports an Error
     diagnostic, and exit non-zero so CI gates trip. *)
  exit
    (try Cmd.eval ~catch:false group with
    | Vexec.Sanitize.Corruption (site, key) ->
        Format.eprintf "%a@." Vanalysis.Diag.pp
          (Vanalysis.Diag.error ~pass:"sanitizer" ~kernel:site
             "shared master buffer %s failed checksum verification" key);
        1
    | Vinterp.Env.Frozen_write (arr, idx) ->
        Format.eprintf "%a@." Vanalysis.Diag.pp
          (Vanalysis.Diag.error ~pass:"sanitizer" ~kernel:"frozen-write"
             "write to Frozen buffer %s[%d]" arr idx);
        1)
