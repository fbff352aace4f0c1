(** Firmware image container: loadable sections, entry point and an
    optional symbol table; closed-source firmware is modeled by {!strip}. *)

type symbol_kind = Func | Object

type symbol = { name : string; addr : int; size : int; kind : symbol_kind }

type section = { sec_name : string; base : int; data : string }

type t = {
  arch : Arch.t;
  entry : int;
  sections : section list;
  symbols : symbol list;
}

val magic : string

(** Drop the symbol table (what shipping a closed-source binary does). *)
val strip : t -> t

val is_stripped : t -> bool
val find_symbol : t -> string -> symbol option

(** Raises [Not_found]. *)
val symbol_addr_exn : t -> string -> int

(** Innermost symbol covering [addr], if any. *)
val symbol_at : t -> int -> symbol option

val section : t -> string -> section option

(** Serialize to the on-disk binary format. *)
val serialize : t -> string

exception Parse_error of string

(** Parse the binary format back; raises {!Parse_error}. *)
val parse : string -> t

val pp : Format.formatter -> t -> unit
