(** Sanitizer plugin architecture: the typed event vocabulary shared by
    both instrumentation backends and the first-class-module plugin
    interface, each implementation carrying its own interface header.
    The Common Sanitizer Runtime compiles a DSL spec into flat
    per-interception-point arrays of plugin handlers; adding a sanitizer
    is a module implementing {!S} plus one line in the {!Plugins} table —
    no runtime edits. *)

(** Cold-path events.  Access checks are the hot path and run specialized
    {!site} closures instead, keeping memory events allocation-free. *)
type event =
  | Alloc of { ptr : int; size : int; pc : int; now : int }
      (** an intercepted allocator returned [ptr] ([now] = retired insns) *)
  | Free of { ptr : int; pc : int; hart : int }
  | Poison of { addr : int; size : int; code : Shadow.code }
  | Unpoison of { addr : int; size : int }
  | Register_global of { addr : int; size : int }
  | Stack_poison of { addr : int; size : int }
  | Stack_unpoison of { addr : int; size : int }
  | Ready  (** firmware signalled readiness (after init-routine replay) *)

(** A compiled access check for one instruction, run on each of its
    accesses: one indirect call per plugin, no allocation. *)
type site = hart:int -> addr:int -> unit

(** Hot-path site specializer: given what the instruction fixes (pc,
    width, direction, atomicity), the {!site} to run there.  The result
    may depend only on these arguments and on state fixed when the plugin
    was created. *)
type access_fn = pc:int -> size:int -> is_write:bool -> is_atomic:bool -> site

(** What a specializer returns where the plugin has nothing to do; the
    runtime drops it from the instruction's site. *)
val no_site : site

type mode = [ `C | `D ]

(** Everything a plugin may need at creation time.  [shadow] is the
    unified shadow-plane resource shared across plugins; [tuning] carries
    per-plugin knobs (e.g. ["kcsan.interval"]). *)
type ctx = {
  machine : Embsan_emu.Machine.t;
  mode : mode;
  shadow : Shadow.t;
  sink : Report.sink;
  symbolize : int -> string option;
  tuning : (string * int) list;
}

(** [tuned ctx key ~default] looks [key] up in [ctx.tuning]. *)
val tuned : ctx -> string -> default:int -> int

module type S = sig
  val header : string
  (** Interface header ({!Api_spec} format): the DSL sanitizer name and
      the interception points this plugin subscribes to. *)

  type t

  val create : ctx -> t

  val access : t -> access_fn
  (** Hot-path site specializer; evaluated once at plan-compile time,
      then per instruction.  Only meaningful when the header declares
      load or store. *)

  val clean_count : t -> int ref option
  (** The clean-granule declaration.  [Some c] promises that on an
      access lying inside one granule of the shadowed RAM whose KASAN
      shadow byte is 0, every site [access] returns does nothing but
      bump [c] by one.  The runtime may then test that inline in the
      translated template and skip the site (an
      {!Embsan_emu.Probe.guard}).  Fixed at [create]; [None] promises
      nothing. *)

  val event : t -> event -> unit
  (** Cold-path handler; plugins ignore events they do not care about. *)

  val scan : t -> now:int -> int
  (** On-demand detector pass (a leak scan); returns new reports. *)

  val checkpoint : t -> unit -> unit
  (** Capture mutable state; the returned restore thunk must survive
      repeated invocation. *)

  val stats : t -> (string * int) list
end

(** A plugin: its code plus its parsed header. *)
type plugin

(** Build a plugin, parsing its header.
    @raise Api_spec.Spec_error on a malformed header. *)
val make : (module S) -> plugin

(** The header's sanitizer name. *)
val name : plugin -> string

(** The parsed header (the Distiller's input). *)
val spec : plugin -> Api_spec.t

(** Does the header declare the interception point? *)
val supports : plugin -> Api_spec.point -> bool

(** A created plugin instance (existentially packed). *)
type instance

val instantiate : plugin -> ctx -> instance
val instance_name : instance -> string
val instance_supports : instance -> Api_spec.point -> bool
val access : instance -> access_fn
val clean_count : instance -> int ref option
val event : instance -> event -> unit
val scan : instance -> now:int -> int
val checkpoint : instance -> unit -> unit
val stats : instance -> (string * int) list
