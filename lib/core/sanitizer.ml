(* Sanitizer plugin architecture (DESIGN.md "Sanitizer plugin architecture").

   The paper's claim (S3.2-S3.3) is that distilling sanitizer interception
   APIs into a DSL makes the on-host runtime generic.  This module is the
   host-side half of that claim: a typed event vocabulary and a first-
   class-module plugin interface whose every implementation carries its
   own interface header.

   The Common Sanitizer Runtime instantiates the plugins a spec selects and
   compiles the spec's intercepts into flat per-point handler arrays; both
   instrumentation backends (EmbSan-C hypercall traps and EmbSan-D
   translation-time probes) construct the same typed events and bind the
   same access sites.  A new sanitizer is a module implementing {!S} plus
   one line in the {!Plugins} table -- no runtime changes. *)

(* --- Typed event vocabulary -------------------------------------------------- *)

(* Cold-path events.  The access check is deliberately NOT a constructor of
   this type: memory events are the hot path and must stay allocation-free,
   so they run specialized {!site} closures instead. *)
type event =
  | Alloc of { ptr : int; size : int; pc : int; now : int }
      (** an intercepted allocator returned [ptr] ([now] = retired insns) *)
  | Free of { ptr : int; pc : int; hart : int }
  | Poison of { addr : int; size : int; code : Shadow.code }
  | Unpoison of { addr : int; size : int }
  | Register_global of { addr : int; size : int }
  | Stack_poison of { addr : int; size : int }
  | Stack_unpoison of { addr : int; size : int }
  | Ready  (** the firmware signalled readiness (post init-routine replay) *)

(* Hot-path access check, specialized per instruction: [access_fn] is
   given what the instruction fixes (pc, width, direction, atomicity) and
   returns the [site] closure to run on each of its accesses, having
   evaluated whatever those facts decide -- or [no_site] when the plugin
   has nothing to do there, which the runtime then drops from the
   instruction's site.  No event record, no allocation per access. *)
type site = hart:int -> addr:int -> unit

type access_fn = pc:int -> size:int -> is_write:bool -> is_atomic:bool -> site

let no_site ~hart:_ ~addr:_ = ()

(* --- Plugin interface -------------------------------------------------------- *)

type mode = [ `C | `D ]

type ctx = {
  machine : Embsan_emu.Machine.t;
  mode : mode;
  shadow : Shadow.t;  (** unified shadow planes, shared across plugins *)
  sink : Report.sink;
  symbolize : int -> string option;
  tuning : (string * int) list;  (** plugin knobs, e.g. ["kcsan.interval"] *)
}

let tuned ctx key ~default =
  Option.value ~default (List.assoc_opt key ctx.tuning)

module type S = sig
  val header : string
  (** The plugin's interface header ({!Api_spec} format): its DSL
      sanitizer name, the interception points it subscribes to and the
      operation each dispatches to.  The Distiller merges it into the
      spec, and the runtime includes the plugin only in the dispatch
      plans of these points. *)

  type t

  val create : ctx -> t

  val access : t -> access_fn
  (** Hot-path site specializer for P_load/P_store plan slots.  Evaluated
      once at plan-compile time, then once per instruction (and again
      after a site-generation change); only meaningful when the header
      declares load or store.  The result may depend only on the
      static arguments and on state fixed at [create]. *)

  val clean_count : t -> int ref option
  (** [Some c] declares that on a clean-granule access -- one that lies
      inside one granule of the shadowed RAM whose KASAN shadow byte is 0
      -- every site [access] returns does nothing but bump [c] by one.
      The runtime may then run that test inline in the translated
      template and skip the site (an inline guard, see
      {!Embsan_emu.Probe.guard}).  Fixed at [create]; [None] promises
      nothing. *)

  val event : t -> event -> unit
  (** Cold-path handler: plan-routed alloc/free/global/stack events plus
      broadcast state maintenance (poison/unpoison/ready).  Plugins ignore
      events they do not care about. *)

  val scan : t -> now:int -> int
  (** On-demand detector pass (a leak scan); returns new reports. *)

  val checkpoint : t -> unit -> unit
  (** [checkpoint t] captures the plugin's mutable state and returns a
      restore thunk.  The thunk must survive repeated invocation (a
      snapshot is restored many times in persistent-mode fuzzing). *)

  val stats : t -> (string * int) list
end

(* A plugin is its code plus its header, parsed once when the plugin
   value is built: its name and points are read off the parse. *)
type plugin = { impl : (module S); spec : Api_spec.t }

let make (module P : S) =
  { impl = (module P); spec = Api_spec.parse_header P.header }

let name p = p.spec.Api_spec.san_name
let spec p = p.spec

let supports p point =
  List.exists (fun (a : Api_spec.api) -> a.point = point) p.spec.apis

(* --- Instances --------------------------------------------------------------- *)

type instance = Instance : plugin * (module S with type t = 'a) * 'a -> instance

let instantiate p ctx =
  let (module P : S) = p.impl in
  Instance (p, (module P), P.create ctx)

let instance_name (Instance (p, _, _)) = name p
let instance_supports (Instance (p, _, _)) point = supports p point
let access (Instance (_, (module P), x)) = P.access x
let clean_count (Instance (_, (module P), x)) = P.clean_count x
let event (Instance (_, (module P), x)) ev = P.event x ev
let scan (Instance (_, (module P), x)) ~now = P.scan x ~now
let checkpoint (Instance (_, (module P), x)) = P.checkpoint x
let stats (Instance (_, (module P), x)) = P.stats x
