(** Common Sanitizer Runtime (paper sections 3.3 and 3.5): consumes the
    merged DSL specification plus platform description and hooks the
    firmware's execution - translated-code probes and allocator
    interception for EmbSan-D, direct hypercall dispatch for EmbSan-C.

    The runtime is sanitizer-agnostic: {!attach} instantiates the plugins
    named by the spec from the {!Plugins} table and compiles the
    spec's intercepts once into flat per-interception-point dispatch plans
    (arrays of handler closures), which both backends feed with the same
    typed {!Sanitizer.event}s; memory accesses run per-instruction
    checks, shared by both backends, built from the load/store plans: an
    exempt pc compiles to counting only, and plugins whose specializer
    returns {!Sanitizer.no_site} there drop out.  An EmbSan-D access
    also gets an inline guard ({!Embsan_emu.Probe.guard}) when the
    firmware is ready, its pc is not exempt, and exactly one plugin
    checks it and declares a {!Sanitizer.S.clean_count}: the translated
    template then handles a clean-granule access itself, bumping
    [mem_events], that plugin's counter and the event cost.  Host-side
    work is charged to the machine's external cost counter. *)

type inst_mode = C | D

val mode_name : inst_mode -> string

(** Per-hart bounded stacks of in-flight allocator calls (EmbSan-D
    interception awaiting the allocator's return). *)
type pending

(** Stack capacity per hart; pushing past it drops the oldest frame. *)
val pending_capacity : int

type t = {
  spec : Dsl.spec;
  mode : inst_mode;
  machine : Embsan_emu.Machine.t;
  sink : Report.sink;
  shadow : Shadow.t;
  instances : Sanitizer.instance array;  (** spec.sanitizers order *)
  load_plan : (Sanitizer.access_fn * int ref option) array;
      (** site specializers, each with its plugin's
          {!Sanitizer.S.clean_count} *)
  store_plan : (Sanitizer.access_fn * int ref option) array;
  alloc_plan : (Sanitizer.event -> unit) array;
  free_plan : (Sanitizer.event -> unit) array;
  global_plan : (Sanitizer.event -> unit) array;
  stack_poison_plan : (Sanitizer.event -> unit) array;
  stack_unpoison_plan : (Sanitizer.event -> unit) array;
  plan_index : (Api_spec.point * string list) list;
  event_units : int;
  mutable ready : bool;
      (** EmbSan-D: set when the firmware signals readiness; access sites
          count nothing before.  EmbSan-C: set at attach.  Inline guards
          are offered only while it is set, so every change of it (the
          ready doorbell, a {!checkpoint} restore) bumps the probe
          generation. *)
  pending : pending;
  exempt_lo : int array;  (** sorted disjoint exempt ranges (parallel) *)
  exempt_hi : int array;
  mem_events : int ref;
      (** accesses counted once ready; a cell, so inline guards bump it *)
  mutable callouts : int;
  mutable intercepted_calls : int;
}

(** Is [pc] inside an intercepted allocator function or an exempt helper
    (legal metadata traffic)?  Binary search over the sorted merged
    ranges. *)
val pc_exempt : t -> int -> bool

(** Attach the runtime to a machine per the spec.  [image] (un-stripped)
    provides report symbolization; [sink] collects reports.  [tuning]
    carries per-plugin knobs (e.g. ["kcsan.interval"]), which plugins read
    via {!Sanitizer.tuned}. *)
val attach :
  spec:Dsl.spec ->
  mode:inst_mode ->
  ?image:Embsan_isa.Image.t ->
  ?sink:Report.sink ->
  ?tuning:(string * int) list ->
  Embsan_emu.Machine.t ->
  t

(** Sanitizer names in the compiled dispatch plan of [point], in dispatch
    order (the DSL handler order, deduplicated, filtered to instantiated
    plugins that subscribe to the point). *)
val plan_names : t -> Api_spec.point -> string list

(** Current depth of [hart]'s in-flight allocator-call stack. *)
val pending_depth : t -> hart:int -> int

(** Capture the runtime's host-side sanitizer state — shadow planes,
    every plugin instance's checkpoint, the report-dedup sink and the
    D-mode allocator-interception stacks — and return the closure that
    restores this runtime to it, any number of times.  Probe wiring, trap
    handlers and the compiled dispatch plans are structural (installed
    once by {!attach}) and not captured. *)
val checkpoint : t -> unit -> unit

(** Unique reports collected so far. *)
val reports : t -> Report.t list

(** Run every plugin's on-demand detector pass (typically after a test
    completes); returns the number of new reports. *)
val scan_leaks : t -> int

(** Per-plugin counter snapshots, in instantiation order. *)
val plugin_stats : t -> (string * (string * int) list) list
