(* EmbSan top-level API: the Pre-testing Probing Phase (S3.4) and the
   Testing Phase (S3.5) in two calls:

     let session = Embsan.prepare ~sanitizers ~firmware () in
     let rt = Embsan.attach session machine in
     ... run fuzzing / reproducers ...
     Embsan.reports rt

   [prepare] distills the chosen reference sanitizers' interfaces, probes
   the firmware per its category and compiles the merged DSL
   specification.  [attach] compiles that specification into live hooks on
   an emulator instance. *)

open Embsan_isa

(* A selection: plugin names, in {!Plugins} table order. *)
type sanitizers = string list

let select names = List.map Sanitizer.name (Plugins.select names)
let kasan_only = [ "kasan" ]
let kcsan_only = [ "kcsan" ]
let all_sanitizers = [ "kasan"; "kcsan" ]

(** Firmware category, deciding the Prober mode (S3.2) and the runtime's
    instrumentation mode. *)
type firmware =
  | Instrumented of Image.t (* open source, compile-time callouts: EmbSan-C *)
  | Source of Image.t * Prober.hints (* open source, symbols only: EmbSan-D *)
  | Binary of Image.t * Prober.hints (* closed source, stripped: EmbSan-D *)

type session = {
  s_sanitizers : sanitizers;
  s_spec : Dsl.spec;
  s_platform : Prober.platform;
  s_mode : Runtime.inst_mode;
  s_image : Image.t; (* as supplied (stripped for Binary) *)
}

let image_of_firmware = function
  | Instrumented i -> i
  | Source (i, _) -> i
  | Binary (i, _) -> Image.strip i

(** Pre-testing probing phase. *)
let prepare ?(ram_base = 0x0001_0000) ?(ram_size = 4 * 1024 * 1024)
    ?(boot_budget = 20_000_000) ~sanitizers ~firmware () =
  let plugins = Plugins.select sanitizers in
  if plugins = [] then invalid_arg "Embsan.prepare: no sanitizer selected";
  let distilled = Distiller.distill (List.map Sanitizer.spec plugins) in
  let image = image_of_firmware firmware in
  let platform, mode =
    match firmware with
    | Instrumented img ->
        (Prober.probe_instrumented ~ram_base ~ram_size ~boot_budget img, Runtime.C)
    | Source (img, hints) ->
        (Prober.probe_symbols ~ram_base ~ram_size ~boot_budget ~hints img, Runtime.D)
    | Binary (img, hints) ->
        ( Prober.probe_binary ~ram_base ~ram_size ~boot_budget ~hints
            (Image.strip img),
          Runtime.D )
  in
  let spec = Prober.apply_to_spec distilled platform in
  {
    s_sanitizers = List.map Sanitizer.name plugins;
    s_spec = spec;
    s_platform = platform;
    s_mode = mode;
    s_image = image;
  }

(** The session's full specification in the textual DSL. *)
let spec_text session = Dsl.to_string session.s_spec

(** Testing phase: hook a fresh machine running the session's firmware. *)
let attach ?sink ?tuning session machine =
  Runtime.attach ~spec:session.s_spec ~mode:session.s_mode
    ~image:session.s_image ?sink ?tuning machine

(** Convenience: create a machine for this session's firmware and boot it. *)
let make_machine ?(harts = 2) session =
  let m =
    Embsan_emu.Machine.create ~harts ~arch:session.s_image.Image.arch
      ~ram_base:session.s_platform.Prober.p_ram_base
      ~ram_size:session.s_platform.Prober.p_ram_size ()
  in
  Embsan_emu.Machine.load_image m session.s_image;
  Embsan_emu.Machine.boot m;
  m

let reports (rt : Runtime.t) = Runtime.reports rt
