(** Effect licenses consumed by the execution runtime.

    Plain data describing, per kernel array, whether the kernel may read
    or write it and whether any such access is indirect.  The runtime's
    master-buffer ownership discipline is a projection of this summary:
    unwritten arrays are [Frozen] (alias the process-wide master),
    possibly-written arrays are [Owned] (private copies).  [of_kernel] is
    the sound syntactic baseline used on the measurement hot path;
    [Analysis.Effect] refines it with affine regions and cross-checks it
    against observed access traces. *)

type entry = {
  e_array : string;
  e_read : bool;
  e_write : bool;
  e_read_indirect : bool;  (** some read is a gather *)
  e_write_indirect : bool;  (** some write is a scatter *)
}

type t = {
  ef_kernel : string;
  ef_entries : entry list;  (** sorted by array name; one per kernel array *)
}

val find : t -> string -> entry option
val may_read : t -> string -> bool
val may_write : t -> string -> bool

(** The aliasing predicate for [Vinterp.Env.create]: true iff the summary
    proves the array is never written. *)
val readonly : t -> string -> bool

(** Ownership projected from the summary: [Frozen] iff unwritten. *)
val ownership : t -> string -> Vinterp.Env.ownership

(** Sound syntactic effect summary of a kernel body (one recursive walk
    over the body). *)
val of_kernel : Vir.Kernel.t -> t

(** [subsumes ~summary sub]: every effect of [sub] is licensed by
    [summary] — the stability obligation for transformed kernels. *)
val subsumes : summary:t -> t -> bool

val entry_to_string : entry -> string

(** Compact one-line rendering ("kernel a:r b:rw* ..."; [*] = indirect). *)
val to_string : t -> string
