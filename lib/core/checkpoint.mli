(** Crash-safe persistence: atomic file writes and a checksummed
    experiment journal for resumable long runs. *)

(** [write_atomic path contents] writes [contents] to a temporary file in
    the same directory, fsyncs it, and renames it over [path].  A reader
    never observes a truncated file; a crash mid-write leaves the previous
    contents of [path] intact. *)
val write_atomic : string -> string -> unit

(** A line-oriented journal of completed work units.  Each entry is one
    checksummed line ([v1 TAB id TAB md5 TAB escaped-payload]); loading
    silently drops truncated or corrupted lines, so a crash costs at most
    the entry being written.  Every {!Journal.record} rewrites the file
    via {!write_atomic}. *)
module Journal : sig
  type t

  (** Load the journal at [path] ([path] need not exist). *)
  val load : string -> t

  (** The recorded payload for [id], if present. *)
  val find : t -> string -> string option

  (** All valid entries, oldest first, one per id (newest wins). *)
  val entries : t -> (string * string) list

  (** Record (or replace) the payload for [id] and persist atomically. *)
  val record : t -> string -> string -> unit

  (** Drop all entries and delete the journal file. *)
  val clear : t -> unit
end
