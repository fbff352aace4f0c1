(** Host-side KASAN runtime: shadow state maintenance and access
    validation, de-coupled from the guest (paper section 3.3).  Detects
    out-of-bounds accesses (heap via poisoned free space, globals/stack via
    compile-time redzones), use-after-free, double/invalid free and null
    dereferences. *)

type alloc_info = { a_size : int; a_pc : int; mutable freed_pc : int option }

type t = {
  shadow : Shadow.t;
  allocs : (int, alloc_info) Hashtbl.t;
      (** live and recently-freed blocks, keyed by pointer *)
  sink : Report.sink;
  symbolize : int -> string option;
  quarantine : int Queue.t;
  quarantine_max : int;
  mutable redzone : int;
  access_checks : int ref;
      (** a cell, so the translated template's inline guard can bump it *)
  mutable alloc_events : int;
  mutable free_events : int;
}

val create :
  ?quarantine_max:int ->
  shadow:Shadow.t ->
  sink:Report.sink ->
  symbolize:(int -> string option) ->
  unit ->
  t

(** State maintenance (the sanitizer's [Update] operations). *)

val on_poison : t -> addr:int -> size:int -> Shadow.code -> unit
val on_unpoison : t -> addr:int -> size:int -> unit
val on_alloc : t -> ptr:int -> size:int -> pc:int -> unit

(** Free a block; reports double-free on a tracked freed block and
    invalid-free on an unknown pointer. *)
val on_free : t -> ptr:int -> pc:int -> hart:int -> unit

(** Register a global object: poisons redzones on both sides and the
    partial tail granule. *)
val on_register_global : t -> addr:int -> size:int -> unit

val on_stack_poison : t -> addr:int -> size:int -> unit
val on_stack_unpoison : t -> addr:int -> size:int -> unit

(** Validate one access (the sanitizer's [Check] operation); adds a report
    to the sink on a violation and always returns (KASAN reports and
    continues). *)
val on_access :
  t -> addr:int -> size:int -> is_write:bool -> pc:int -> hart:int -> unit

(** The specialized check of an access of [size] bytes at [pc] (the
    plugin's access site): counts and reports exactly as {!on_access}
    does, but only counts an access above the null page that one shadow
    byte shows valid (it starts outside RAM, or lies in one granule whose
    byte makes all of it addressable), with no call.  On a clean granule
    (byte 0) it does nothing else, which the plugin declares as its
    {!Sanitizer.S.clean_count} when the shadow lies above the null
    page. *)
val site : t -> pc:int -> size:int -> is_write:bool -> Sanitizer.site

(** The plugin ({!Sanitizer.S} implementation, header included).  Its
    [Ready] event re-establishes live boot-time allocations after the
    init-routine heap poison replays. *)
val plugin : Sanitizer.plugin
