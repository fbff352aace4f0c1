(** UBSAN-style unaligned-access detector — the plugin architecture's
    drop-in proof.  Lives entirely outside the Common Sanitizer Runtime:
    this {!Sanitizer.S} implementation, header included, plus one line in
    the {!Plugins} table; no runtime/machine/probe edits. *)

type t = {
  sink : Report.sink;
  symbolize : int -> string option;
  mutable checks : int;
  mutable unaligned : int;
}

val create :
  sink:Report.sink -> symbolize:(int -> string option) -> unit -> t

(** Report a 2- or 4-byte access whose address is not a multiple of its
    size ([Report.Unaligned_access]). *)
val on_access :
  t -> addr:int -> size:int -> is_write:bool -> pc:int -> hart:int -> unit

val plugin : Sanitizer.plugin
