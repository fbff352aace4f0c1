(** EmbSan top-level API: the Pre-testing Probing Phase (section 3.4) and
    the Testing Phase (section 3.5) in two calls:

    {[
      let session = Embsan.prepare ~sanitizers ~firmware () in
      let machine = Embsan.make_machine session in
      let runtime = Embsan.attach session machine in
      (* fuzz / replay ... *)
      Embsan.reports runtime
    ]} *)

(** A sanitizer selection: the selected plugin names.  {!select} and the
    presets keep them in {!Plugins} table order, the order {!prepare}
    distills their headers in. *)
type sanitizers = string list

(** [select names]: the named plugins in table order, each once.
    @raise Invalid_argument on a name not in the {!Plugins} table. *)
val select : string list -> sanitizers

val kasan_only : sanitizers
val kcsan_only : sanitizers

(** KASAN + KCSAN (the paper's evaluation set). *)
val all_sanitizers : sanitizers

(** Firmware category, deciding the Prober mode and the runtime's
    instrumentation mode. *)
type firmware =
  | Instrumented of Embsan_isa.Image.t
      (** open source with compile-time callouts: EmbSan-C *)
  | Source of Embsan_isa.Image.t * Prober.hints
      (** open source, symbols only: EmbSan-D *)
  | Binary of Embsan_isa.Image.t * Prober.hints
      (** closed source; the image is stripped: EmbSan-D *)

type session = {
  s_sanitizers : sanitizers;
  s_spec : Dsl.spec;
  s_platform : Prober.platform;
  s_mode : Runtime.inst_mode;
  s_image : Embsan_isa.Image.t;
}

(** Pre-testing probing phase: distill the selected sanitizers' interfaces,
    probe the firmware, compile the merged DSL specification.  The
    session's [s_sanitizers] is the selection in table order.
    @raise Invalid_argument on an unknown name or an empty selection. *)
val prepare :
  ?ram_base:int ->
  ?ram_size:int ->
  ?boot_budget:int ->
  sanitizers:sanitizers ->
  firmware:firmware ->
  unit ->
  session

(** The session's full specification in the textual DSL. *)
val spec_text : session -> string

(** Testing phase: hook a machine running the session's firmware.
    [tuning] carries per-plugin knobs (["kcsan.interval"],
    ["kcsan.stall"]); see {!Runtime.attach}. *)
val attach :
  ?sink:Report.sink ->
  ?tuning:(string * int) list ->
  session ->
  Embsan_emu.Machine.t ->
  Runtime.t

(** Create and boot a machine for this session's firmware. *)
val make_machine : ?harts:int -> session -> Embsan_emu.Machine.t

val reports : Runtime.t -> Report.t list
