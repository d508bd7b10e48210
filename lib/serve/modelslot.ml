(* The served model slot.

   Readers take the whole [loaded] record from one [Atomic.get], so a
   request is served end-to-end by exactly one model generation even
   while a reload swaps the slot mid-stream; the digest in each response
   attributes it to that generation.  Reload validates the candidate
   completely (parse, target, feature-schema compatibility) before the
   swap, so the slot never holds a model that could mispredict silently
   against the server's configured feature set. *)

open Costmodel

type loaded = {
  model : Linmodel.t option;
  digest : string;
  origin : string;
  generation : int;
}

type reload_error =
  | Re_read of string
  | Re_parse of string
  | Re_incompatible of Linmodel.mismatch
  | Re_target of string

let reload_error_to_string = function
  | Re_read m -> "cannot read model: " ^ m
  | Re_parse m -> "cannot parse model: " ^ m
  | Re_incompatible mm -> Linmodel.mismatch_to_string mm
  | Re_target m -> m

type t = {
  features : Linmodel.feature_kind;
  slot : loaded Atomic.t;
  reloads : int Atomic.t;
  rejected : int Atomic.t;
}

let baseline = { model = None; digest = "baseline"; origin = "baseline"; generation = 0 }

let create ~features () =
  { features; slot = Atomic.make baseline; reloads = Atomic.make 0;
    rejected = Atomic.make 0 }

let current t = Atomic.get t.slot
let reloads t = Atomic.get t.reloads
let rejected t = Atomic.get t.rejected

let model_digest m = Digest.to_hex (Digest.string (Linmodel.to_string m))

let validate t ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error (Re_read m)
  | exception e -> Error (Re_read (Printexc.to_string e))
  | contents -> (
      match Linmodel.of_string contents with
      | Error m -> Error (Re_parse m)
      | Ok m when m.Linmodel.target <> Linmodel.Speedup ->
          Error
            (Re_target
               "cost-target model cannot serve vector predictions \
                (speedup-target required)")
      | Ok m -> (
          match Linmodel.compat ~features:t.features m with
          | Error mm -> Error (Re_incompatible mm)
          | Ok () -> Ok m))

let reload t ~path =
  match validate t ~path with
  | Error e ->
      Atomic.incr t.rejected;
      Error e
  | Ok m ->
      (* Compare-and-swap loop: generation numbers stay monotone even if
         two admins race a reload. *)
      let rec swap () =
        let old = Atomic.get t.slot in
        let next =
          { model = Some m; digest = model_digest m; origin = path;
            generation = old.generation + 1 }
        in
        if Atomic.compare_and_set t.slot old next then next else swap ()
      in
      let next = swap () in
      Atomic.incr t.reloads;
      Ok next
