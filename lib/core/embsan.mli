(** EmbSan top-level API: the Pre-testing Probing Phase (section 3.4) and
    the Testing Phase (section 3.5) in two calls:

    {[
      let session = Embsan.prepare ~sanitizers ~firmware () in
      let machine = Embsan.make_machine session in
      let runtime = Embsan.attach session machine in
      (* fuzz / replay ... *)
      Embsan.reports runtime
    ]} *)

type sanitizers = {
  kasan : bool;
  kcsan : bool;
  kmemleak : bool;
  ualign : bool;
  ftrace : bool;
}

val kasan_only : sanitizers
val kcsan_only : sanitizers

(** Only the FastTrack happens-before race detector ({!Ftrace}). *)
val ftrace_only : sanitizers

(** KASAN + KCSAN (the paper's evaluation set). *)
val all_sanitizers : sanitizers

(** Add the kmemleak functionality to a selection. *)
val with_kmemleak : sanitizers -> sanitizers

(** Add the unaligned-access detector ({!Ualign}) to a selection. *)
val with_ualign : sanitizers -> sanitizers

(** Add the happens-before race detector ({!Ftrace}) to a selection. *)
val with_ftrace : sanitizers -> sanitizers

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
    probe the firmware, compile the merged DSL specification. *)
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

(** Testing phase: hook a machine running the session's firmware. *)
val attach :
  ?sink:Report.sink ->
  ?kcsan_interval:int ->
  ?kcsan_stall:int ->
  session ->
  Embsan_emu.Machine.t ->
  Runtime.t

(** Create and boot a machine for this session's firmware. *)
val make_machine : ?harts:int -> session -> Embsan_emu.Machine.t

val reports : Runtime.t -> Report.t list
