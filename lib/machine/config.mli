(** Textual machine descriptions: the op tables have a finite domain, so a
    machine dumps as a complete table and loads back exactly.  Lets users
    describe custom cores in a file. *)

val to_string : Descr.t -> string
val save : Descr.t -> string -> unit
val of_string : string -> (Descr.t, string) result

(** [Error] when the file cannot be read or parsed. *)
val load : string -> (Descr.t, string) result
