(* Kept because perfbench/serve_closed.ml links [Vserve.Jsonv]; code in
   this repository calls {!Vjson} directly. *)
include Vjson
