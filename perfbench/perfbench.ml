(* The repository's benchmark: three workloads, their end-to-end metrics
   with tracing off, and a traced run that splits the time by layer.

     perfbench WORKLOAD --seed N --seconds S --trace 0|1 [--sequential]

   WORKLOAD is build-cold, grid or serve-closed.  Run from the checkout
   root (run.py builds this program and the daemon, then calls it); scratch
   files go to perfbench/_run.  The last line of stdout is the result as
   one JSON object.  [--sequential] pins the in-process pool sequential;
   the benchmark's own tests use it to check that counts do not depend on
   the worker count.

     perfbench probe|grid-pass [--sequential]

   are the children the benchmark spawns itself: [probe] does what precedes
   a first op and reports ready (a set-up sample); [grid-pass] then runs
   one cold grid pass and reports it. *)

let usage () =
  prerr_endline
    "usage: perfbench (build-cold|grid|serve-closed) --seed N --seconds S \
     --trace 0|1 [--sequential]";
  exit 2

(* The set-up probe: what the measured process does before its first
   op — process start, registry initialisation and the pool's spawn. *)
let probe () =
  ignore (Sys.opaque_identity (List.length Tsvc.Registry.all));
  ignore (Vpar.Pool.parallel_map (fun x -> x + 1) [ 1; 2; 3; 4 ]);
  print_string "ready\n";
  flush stdout

let spawn_self args =
  Common.spawn_piped Sys.executable_name
    (Array.append args
       (if Vpar.Pool.sequential () then [| "--sequential" |] else [||]))

let setup_samples = 15

(* One set-up: from spawning a probe until it reports ready. *)
let process_setup () =
  let t0 = Common.now () in
  let pid, rd = spawn_self [| "probe" |] in
  let ic = Unix.in_channel_of_descr rd in
  let line = In_channel.input_line ic in
  let dt = Common.now () -. t0 in
  close_in ic;
  ignore (Common.waitpid_retry pid);
  if line <> Some "ready" then failwith "set-up probe did not report ready";
  dt

let vecmodel = "_build/default/bin/vecmodel.exe"
let workdir = "perfbench/_run"

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  sequential : bool;
}

let parse_opts workload args =
  let rec go o = function
    | [] -> o
    | "--seed" :: v :: rest -> go { o with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { o with seconds = int_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--sequential" :: rest -> go { o with sequential = true } rest
    | _ -> usage ()
  in
  go
    { workload; seed = 1; seconds = 30; trace = false; sequential = false }
    args

let run o =
  if o.seconds < 1 then usage ();
  (* The serve client is single-threaded: it fits the served model
     without spawning the pool. *)
  if o.sequential || o.workload = "serve-closed" then
    Vpar.Pool.set_sequential true;
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let paths =
    { Serve_closed.vecmodel;
      sock = Filename.concat workdir "serve.sock";
      model = Filename.concat workdir "model.txt" }
  in
  let seconds = float_of_int o.seconds in
  let header =
    Printf.sprintf "perfbench %s seed=%d seconds=%d trace=%d pool=%s" o.workload
      o.seed o.seconds (Bool.to_int o.trace)
      (if Vpar.Pool.sequential () then "sequential"
       else Printf.sprintf "%d worker(s)" (Vpar.Pool.default_size ()))
  in
  let setups probe = Common.setups ~probe ~count:setup_samples ~seconds in
  let before = Common.calibrate "before" in
  let result, spans =
    match (o.workload, o.trace) with
    | "build-cold", false ->
        (Build_cold.run ~seconds ~setups:(setups process_setup), [])
    | "build-cold", true -> Build_cold.run_traced ()
    | "grid", false ->
        ( Grid.run ~seconds:o.seconds ~spawn_pass:(fun () ->
              spawn_self [| "grid-pass" |]),
          [] )
    | "grid", true -> Grid.run_traced ()
    | "serve-closed", false ->
        (Serve_closed.run ~paths ~seed:o.seed ~seconds ~setups, [])
    | "serve-closed", true -> Serve_closed.run_traced ~paths ~seed:o.seed
    | _ -> usage ()
  in
  let after = Common.calibrate "after" in
  if o.trace then
    Spans.write
      (Filename.concat workdir (Printf.sprintf "spans-%s.jsonl" o.workload))
      spans;
  Common.print_result
    { result with
      Common.notes = (header :: before :: result.Common.notes) @ [ after ] }

let () =
  match Array.to_list Sys.argv with
  | _ :: ("probe" | "grid-pass" as child) :: flags ->
      if flags = [ "--sequential" ] then Vpar.Pool.set_sequential true;
      probe ();
      if child = "grid-pass" then Grid.pass_child ()
  | _ :: workload :: args -> run (parse_opts workload args)
  | _ -> usage ()
