(** Sanitizer interface specifications: the Distiller's input (the
    "interface header files" of paper section 3.1).  Each plugin carries
    its header ({!Sanitizer.S.header}) in the small declarative format
    parsed here. *)

type role = Check | Update

type point =
  | P_load
  | P_store
  | P_func_alloc  (** allocator-entry interception (various Xalloc()) *)
  | P_func_free
  | P_global_register
  | P_stack_poison
  | P_stack_unpoison

val point_name : point -> string
val point_of_name : string -> point option

type api = {
  role : role;
  point : point;
  args : string list;  (** argument names, e.g. [["addr"; "size"]] *)
  operation : string;  (** runtime operation to dispatch to *)
}

type t = { san_name : string; resources : string list; apis : api list }

exception Spec_error of string

(** Parse a header text; raises {!Spec_error} on malformed input. *)
val parse_header : string -> t
