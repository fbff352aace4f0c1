(** The sanitizer table: the built-in plugins, immutable, in table order
    (kasan, kcsan, kmemleak, ualign, ftrace).  {!Runtime.attach} looks
    spec names up here; adding a sanitizer is its module plus one line in
    the table. *)

(** The plugin whose header declares this sanitizer name. *)
val find : string -> Sanitizer.plugin option

(** The named plugins in table order, each once.
    @raise Invalid_argument on a name not in the table. *)
val select : string list -> Sanitizer.plugin list
