(* Shared pieces of the benchmark: the clock, order statistics, the metric
   record and its printers, peak memory, the host calibration loop and
   child-process helpers. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one workload run reports: the op tally, the metrics, whether every
   output matched its oracle (and, in traced runs, whether the replays
   reproduced the program's results), and human-readable lines printed
   before the result. *)
type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
  notes : string list;
}

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* The tail: the highest percentile with at least ten ops beyond it, the
   (m-10)-th smallest of m values, at percentile 100 (m-10)/m.  A run is
   cut into up to ten consecutive windows of at least 50 ops and the tail
   is the median of the windows' tails.  Over a whole run of 10^5 requests
   it would rest on the ten worst host stalls, and over a whole grid run
   on the extreme of one cluster of similar drivers.  [None] below 11 ops;
   otherwise the value, the windows' median percentile and the window
   count. *)
let tail a =
  let n = Array.length a in
  if n < 11 then None
  else
    let w = max 1 (min 10 (n / 50)) in
    let size = n / w in
    let per =
      Array.init w (fun i ->
          let len = if i = w - 1 then n - (i * size) else size in
          let s = sorted (Array.sub a (i * size) len) in
          (s.(len - 11), 100.0 *. float_of_int (len - 10) /. float_of_int len))
    in
    Some (median (Array.map fst per), median (Array.map snd per), w)

(* The six end-to-end metrics every workload reports, from per-op
   latencies in seconds, in completion order. *)
let end_to_end ~setup_s ~rss_mb ~ok ~latencies ~elapsed =
  let n = Array.length latencies in
  let base =
    [ metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MiB" rss_mb;
      metric "ok_frac" "frac" (float_of_int ok /. float_of_int n);
      metric "ops_per_s" "1/s" (float_of_int n /. elapsed);
      metric "p50_ms" "ms" (1000.0 *. median latencies) ]
  in
  match tail latencies with
  | Some (v, _, _) -> base @ [ metric "tail_ms" "ms" (1000.0 *. v) ]
  | None -> base

let tail_note latencies =
  let n = Array.length latencies in
  match tail latencies with
  | Some (v, pct, w) ->
      Printf.sprintf
        "tail_ms %.4f ms: p%.2f (10 ops beyond it), median over %d window(s) \
         of %d ops"
        (1000.0 *. v) pct w n
  | None -> Printf.sprintf "tail_ms omitted: %d ops (needs 11)" n

(* Peak resident set of a process, from the kernel's high-water mark. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

(* Host calibration: a fixed integer loop timed in slices before and after
   each run.  Printed beside the metrics so host-noise phases are visible;
   never used to scale a metric. *)
let calibration_steps = 20_000_000

let calibration_slice () =
  let t0 = now () in
  let x = ref 1 in
  for _ = 1 to calibration_steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

let calibrate label =
  let slices = Array.init 5 (fun _ -> 1000.0 *. calibration_slice ()) in
  let s = sorted slices in
  Printf.sprintf
    "calibration %s: 5 slices of %d LCG steps, median %.2f ms (min %.2f, max %.2f)"
    label calibration_steps (median slices) s.(0) s.(4)

(* Set-up samples spread over a run.  [due] is asked at op boundaries;
   when another slice of the run has passed, [take] measures one set-up and
   stops the op clock meanwhile.  Spreading the samples over the run keeps
   their median from resting on one host-noise phase. *)
type setups = {
  probe : unit -> float;
  count : int;
  period : float;
  mutable taken : float list;
  mutable paused : float;  (** seconds spent in set-ups, off the op clock *)
}

let setups ~probe ~count ~seconds =
  { probe; count; period = seconds /. float_of_int count; taken = [];
    paused = 0.0 }

let due s ~op_elapsed =
  List.length s.taken < s.count
  && op_elapsed >= s.period *. float_of_int (List.length s.taken)

let take s =
  let t0 = now () in
  s.taken <- s.probe () :: s.taken;
  s.paused <- s.paused +. (now () -. t0)

(* The median set-up, after taking any samples the run ended before. *)
let setup_median s =
  while List.length s.taken < s.count do
    take s
  done;
  median (Array.of_list s.taken)

(* Spawn [prog args] with stdout on a pipe; returns the pid and the read
   end.  stdin is /dev/null and stderr is inherited. *)
let spawn_piped prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close null)
      (fun () ->
        Unix.create_process prog (Array.append [| prog |] args) null wr
          Unix.stderr)
  in
  (pid, rd)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_retry pid)

(* --- output ---------------------------------------------------------------

   Human-readable lines first, then the result as one JSON object on the
   last line.  Values are printed with every digit they carry. *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result r =
  List.iter print_endline r.notes;
  List.iter
    (fun m -> Printf.printf "%-28s %16.6f %s\n" m.name m.value m.unit_)
    r.metrics;
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
             (json_number m.value) m.unit_)
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed metrics
