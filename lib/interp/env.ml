(* Execution environment shared by the scalar interpreter and the vectorized
   executor: array storage, parameter bindings and deterministic
   initialization.

   Initialization is pure in (seed, array name, element index), so a scalar
   run and a vector run of the same kernel start from bit-identical state. *)

open Vir

type store = F_arr of float array | I_arr of int array

type t = {
  n : int;
  n2 : int;
  arrays : (string, store) Hashtbl.t;
  params : (string, float) Hashtbl.t;
  frozen : (string, unit) Hashtbl.t;
      (* arrays that alias a shared master instead of owning a copy *)
  mutable on_access : (string -> int -> bool -> unit) option;
      (* called as [f arr idx is_write] on every element access; used by the
         trace-driven cache simulator *)
}

(* Ownership of a buffer inside an environment: [Frozen] arrays alias the
   process-wide master and must never be written (every env in the process
   sees the same words); [Owned] arrays are private copies. *)
type ownership = Frozen | Owned

(* Write barrier over frozen buffers.  Off by default (the readonly
   aliasing contract is enforced statically by the effect summary); the
   sanitizer flips it on so that any write reaching a frozen array through
   the interpreter traps immediately instead of corrupting every
   subsequent environment in the process. *)
let frozen_guard = Atomic.make false
let set_frozen_guard b = Atomic.set frozen_guard b

exception Frozen_write of string * int

let check_frozen t name idx =
  if Atomic.get frozen_guard && Hashtbl.mem t.frozen name then
    raise (Frozen_write (name, idx))

(* SplitMix64-style hash, reduced to OCaml's 63-bit ints; good enough to
   decorrelate (seed, name, index) triples.  The (seed, name) prefix is
   independent of the index, so bulk initialization hashes the name once
   per array instead of once per element. *)
let hash_name seed name =
  let h = ref (seed * 0x9E3779B1) in
  String.iter (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land max_int) name;
  !h

let hash_idx h0 idx =
  let h = ref (h0 lxor idx) in
  h := (!h * 0xff51afd7) land max_int;
  h := !h lxor (!h lsr 23);
  h := (!h * 0xc4ceb9fe) land max_int;
  h := !h lxor (!h lsr 29);
  !h land max_int

(* Data floats in [0.5, 1.5): safe for division and stable under long
   product reductions; integer data arrays get small positive ints. *)
let float_of_hash h = 0.5 +. (float_of_int (h mod 10000) /. 10000.0)

(* A deterministic permutation of [0, n), extended periodically when the
   array extent exceeds n.  Conflict-freedom inside any vector window is what
   the forced-vectorization experiments assume of index arrays. *)
let permutation seed name n =
  let h0 = hash_name seed name in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = hash_idx h0 i mod (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let fill_floats h0 a len =
  for i = 0 to len - 1 do
    Array.unsafe_set a i (float_of_hash (hash_idx h0 i))
  done

let fill_ints h0 a len =
  for i = 0 to len - 1 do
    Array.unsafe_set a i (1 + (hash_idx h0 i mod 4))
  done

(* Master copies of freshly initialized buffers, memoized per
   (seed, kind, name, len, n).  TSVC kernels overwhelmingly share array
   names and extents, so a registry-wide dataset build hashes each
   distinct buffer once and every subsequent environment starts from a
   memcpy of its master.  Masters are private to this table — callers
   only ever receive copies or blits.  The mutex makes the table safe
   under the domain pool; the cap bounds growth if a sweep runs many
   distinct (seed, n) combinations. *)
type master = M_f of float array | M_i of int array

let kind_label = function 0 -> "f" | 1 -> "i" | _ -> "idx"

let master_key_string (seed, kind, name, len, n) =
  Printf.sprintf "%s:%s:seed=%d:len=%d:n=%d" (kind_label kind) name seed len n

(* The printable key is materialized once at memoization time: the
   sanitizer folds over the table after every measured run, and
   re-rendering every key per fold would dominate its overhead. *)
let memo : (int * int * string * int * int, string * master) Hashtbl.t =
  Hashtbl.create 64

let memo_lock = Mutex.create ()
let memo_cap = 512

let master_for key make =
  Mutex.lock memo_lock;
  let m =
    match Hashtbl.find_opt memo key with
    | Some (_, m) -> m
    | None ->
        if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
        let m = make () in
        Hashtbl.replace memo key (master_key_string key, m);
        m
  in
  Mutex.unlock memo_lock;
  m

let float_master seed name len =
  match
    master_for (seed, 0, name, len, 0) (fun () ->
        let a = Array.make len 0.0 in
        fill_floats (hash_name seed name) a len;
        M_f a)
  with
  | M_f a -> a
  | M_i _ -> assert false

let int_master seed name len =
  match
    master_for (seed, 1, name, len, 0) (fun () ->
        let a = Array.make len 0 in
        fill_ints (hash_name seed name) a len;
        M_i a)
  with
  | M_i a -> a
  | M_f _ -> assert false

let idx_master seed name len n =
  match
    master_for (seed, 2, name, len, n) (fun () ->
        let perm = permutation seed name n in
        M_i (Array.init len (fun i -> perm.(i mod n))))
  with
  | M_i a -> a
  | M_f _ -> assert false

(* Fold over the memoized masters in a deterministic (key-sorted) order.
   The store views share structure with the masters themselves: callers
   must treat them as strictly read-only.  This is the sanitizer's window
   into the shared state it shadows. *)
let fold_masters f init =
  Mutex.lock memo_lock;
  let items = Hashtbl.fold (fun _ km acc -> km :: acc) memo [] in
  Mutex.unlock memo_lock;
  let items = List.sort (fun (a, _) (b, _) -> String.compare a b) items in
  List.fold_left
    (fun acc (key, m) ->
      let st = match m with M_f a -> F_arr a | M_i a -> I_arr a in
      f key st acc)
    init items

(* Drop every memoized master.  Tests use this to recover from a
   deliberately poisoned table; subsequent [create] calls re-derive
   masters from the pure (seed, name, index) initialization. *)
let clear_masters () =
  Mutex.lock memo_lock;
  Hashtbl.reset memo;
  Mutex.unlock memo_lock

(* Deliberately corrupt one memoized master in place — the fault-injection
   hook behind the [sanitize.poison] site.  This is exactly the failure
   mode the sanitizer exists to catch: a single flipped word in a shared
   master silently skews every environment created afterwards.  Prefers
   float data masters (then int data, then index permutations, whose
   corruption could additionally send gathers out of bounds); returns the
   printable key of the poisoned master, or [None] if the table is empty. *)
let poison_master () =
  Mutex.lock memo_lock;
  let keys = Hashtbl.fold (fun key _ acc -> key :: acc) memo [] in
  let kind_of (_, kind, _, _, _) = kind in
  let keys =
    List.sort
      (fun a b ->
        match compare (kind_of a) (kind_of b) with
        | 0 -> compare a b
        | c -> c)
      keys
  in
  let poisoned =
    match keys with
    | [] -> None
    | key :: _ -> (
        match Hashtbl.find_opt memo key with
        | Some (s, M_f a) when Array.length a > 0 ->
            a.(0) <- a.(0) +. 1.0;
            Some s
        | Some (s, M_i a) when Array.length a > 0 ->
            a.(0) <- a.(0) + 1;
            Some s
        | _ -> None)
  in
  Mutex.unlock memo_lock;
  poisoned

(* [readonly name = true] promises the caller will never write [name]
   through this environment; the array then aliases the shared master
   instead of copying it.  [Measure.execute] derives the predicate from
   the kernel's static store set, which is exactly what every execution
   backend writes through. *)
let create ?(seed = 42) ?(readonly = fun _ -> false) ~n (k : Kernel.t) =
  if n < 4 then invalid_arg "Env.create: n must be at least 4";
  let n2 = Kernel.isqrt n in
  let arrays = Hashtbl.create 8 in
  let frozen = Hashtbl.create 4 in
  List.iter
    (fun (d : Kernel.array_decl) ->
      let len = max 1 (Kernel.extent_elems ~n d.arr_extent) in
      let share = readonly d.arr_name in
      if share then Hashtbl.replace frozen d.arr_name ();
      let of_master a = if share then a else Array.copy a in
      let store =
        match (d.arr_role, d.arr_ty) with
        | Kernel.Idx, _ -> I_arr (of_master (idx_master seed d.arr_name len n))
        | Kernel.Data, (Types.F32 | Types.F64) ->
            F_arr (of_master (float_master seed d.arr_name len))
        | Kernel.Data, (Types.I32 | Types.I64) ->
            I_arr (of_master (int_master seed d.arr_name len))
      in
      Hashtbl.replace arrays d.arr_name store)
    k.arrays;
  let params = Hashtbl.create 4 in
  List.iteri
    (fun i p ->
      (* Parameter values: small, positive, deterministic, distinct. *)
      Hashtbl.replace params p (1.0 +. (0.5 *. float_of_int (i + 1))))
    k.params;
  { n; n2; arrays; params; frozen; on_access = None }

(* Re-initialize in place for a fresh run of [k]: contents identical to
   [create ?seed ~n:t.n k], but existing buffers of the right kind and
   length are refilled rather than reallocated.  Median-of-k repeat
   measurements call this between repeats so the working set is allocated
   once per sample instead of once per repeat. *)
let reset ?(seed = 42) t (k : Kernel.t) =
  let keep = Hashtbl.create 8 in
  List.iter
    (fun (d : Kernel.array_decl) ->
      Hashtbl.replace keep d.arr_name ();
      let len = max 1 (Kernel.extent_elems ~n:t.n d.arr_extent) in
      let fresh () =
        match (d.arr_role, d.arr_ty) with
        | Kernel.Idx, _ ->
            I_arr (Array.copy (idx_master seed d.arr_name len t.n))
        | Kernel.Data, (Types.F32 | Types.F64) ->
            F_arr (Array.copy (float_master seed d.arr_name len))
        | Kernel.Data, (Types.I32 | Types.I64) ->
            I_arr (Array.copy (int_master seed d.arr_name len))
      in
      (* An array that aliases its master was never written (the [create]
         contract), so the refill would be an identity blit: skip it. *)
      match (Hashtbl.find_opt t.arrays d.arr_name, d.arr_role, d.arr_ty) with
      | Some (F_arr a), Kernel.Data, (Types.F32 | Types.F64)
        when Array.length a = len ->
          let m = float_master seed d.arr_name len in
          if a != m then Array.blit m 0 a 0 len
      | Some (I_arr a), Kernel.Data, (Types.I32 | Types.I64)
        when Array.length a = len ->
          let m = int_master seed d.arr_name len in
          if a != m then Array.blit m 0 a 0 len
      | Some (I_arr a), Kernel.Idx, _ when Array.length a = len ->
          let m = idx_master seed d.arr_name len t.n in
          if a != m then Array.blit m 0 a 0 len
      | _ ->
          (* A fresh buffer is a private copy, whatever the name's previous
             ownership was. *)
          Hashtbl.remove t.frozen d.arr_name;
          Hashtbl.replace t.arrays d.arr_name (fresh ()))
    k.arrays;
  (* Drop arrays a previous kernel left behind so [snapshot] stays exact. *)
  let stale =
    Hashtbl.fold
      (fun name _ acc -> if Hashtbl.mem keep name then acc else name :: acc)
      t.arrays []
  in
  List.iter
    (fun name ->
      Hashtbl.remove t.arrays name;
      Hashtbl.remove t.frozen name)
    stale;
  Hashtbl.reset t.params;
  List.iteri
    (fun i p -> Hashtbl.replace t.params p (1.0 +. (0.5 *. float_of_int (i + 1))))
    k.params

let set_param t name v = Hashtbl.replace t.params name v

let set_trace t f = t.on_access <- Some f
let clear_trace t = t.on_access <- None

let trace t name idx write =
  match t.on_access with Some f -> f name idx write | None -> ()

let param t name =
  match Hashtbl.find_opt t.params name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Env.param: unbound parameter %s" name)

let store t name =
  match Hashtbl.find_opt t.arrays name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Env.store: unknown array %s" name)

exception Out_of_bounds of string * int

let read_float t name idx =
  trace t name idx false;
  match store t name with
  | F_arr a ->
      if idx < 0 || idx >= Array.length a then raise (Out_of_bounds (name, idx));
      a.(idx)
  | I_arr a ->
      if idx < 0 || idx >= Array.length a then raise (Out_of_bounds (name, idx));
      float_of_int a.(idx)

let read_int t name idx =
  trace t name idx false;
  match store t name with
  | I_arr a ->
      if idx < 0 || idx >= Array.length a then raise (Out_of_bounds (name, idx));
      a.(idx)
  | F_arr a ->
      if idx < 0 || idx >= Array.length a then raise (Out_of_bounds (name, idx));
      int_of_float a.(idx)

let write_float t name idx v =
  check_frozen t name idx;
  trace t name idx true;
  match store t name with
  | F_arr a ->
      if idx < 0 || idx >= Array.length a then raise (Out_of_bounds (name, idx));
      a.(idx) <- v
  | I_arr a ->
      if idx < 0 || idx >= Array.length a then raise (Out_of_bounds (name, idx));
      a.(idx) <- int_of_float v

let write_int t name idx v =
  check_frozen t name idx;
  trace t name idx true;
  match store t name with
  | I_arr a ->
      if idx < 0 || idx >= Array.length a then raise (Out_of_bounds (name, idx));
      a.(idx) <- v
  | F_arr a ->
      if idx < 0 || idx >= Array.length a then raise (Out_of_bounds (name, idx));
      a.(idx) <- float_of_int v

(* Flat snapshot of every array as floats, for comparing two executions. *)
let snapshot t =
  Hashtbl.fold
    (fun name st acc ->
      let data =
        match st with
        | F_arr a -> Array.copy a
        | I_arr a -> Array.map float_of_int a
      in
      (name, data) :: acc)
    t.arrays []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
