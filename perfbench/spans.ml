(* Spans recorded by the benchmark around its calls into the program's
   layers: name, start, end, parent span and op id.  Spans are kept in
   memory and written out when the run ends.  When tracing is off a span
   is one flag test around the call.

   Spans nest on a single stack, so only the submitting domain records
   them: every traced replay runs sequentially in the benchmark process. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref 0

let set_op op = current_op := op

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let op = !current_op in
    let t0 = Common.now () in
    let close () =
      let t1 = Common.now () in
      stack := List.tl !stack;
      recorded := { id; parent; op; name; t0; t1 } :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let all () = List.rev !recorded

(* Self time: a span's duration minus the part its children cover.
   Children run inside their parent and one after another, so the covered
   part is the sum of their durations. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)
          +. (s.t1 -. s.t0)))
    spans;
  List.map
    (fun s ->
      ( s,
        s.t1 -. s.t0
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) ))
    spans

(* Per span name, the median over ops of the summed self time of that
   name's spans in the op (ops without such a span are skipped). *)
let per_op_self_medians spans =
  let per = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let key = (s.name, s.op) in
      Hashtbl.replace per key
        (Option.value ~default:0.0 (Hashtbl.find_opt per key) +. self))
    (self_times spans);
  let by_name = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (name, _) v ->
      Hashtbl.replace by_name name
        (v :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
    per;
  fun name ->
    match Hashtbl.find_opt by_name name with
    | None -> 0.0
    | Some vs -> Common.median (Array.of_list vs)

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": \"%s\", \
             \"start\": %.9f, \"end\": %.9f, \"self\": %.9f}\n"
            s.id s.parent s.op s.name s.t0 s.t1 self)
        (self_times spans))

(* A span whose interval was measured by the caller (a client round trip
   that overlaps other connections' requests). *)
let record name ~op ~t0 ~t1 =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    recorded := { id; parent = -1; op; name; t0; t1 } :: !recorded
  end
