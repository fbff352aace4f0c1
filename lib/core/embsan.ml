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

type sanitizers = {
  kasan : bool;
  kcsan : bool;
  kmemleak : bool;
  ualign : bool;
  ftrace : bool;
}

let kasan_only =
  { kasan = true; kcsan = false; kmemleak = false; ualign = false; ftrace = false }

let kcsan_only =
  { kasan = false; kcsan = true; kmemleak = false; ualign = false; ftrace = false }

let ftrace_only =
  { kasan = false; kcsan = false; kmemleak = false; ualign = false; ftrace = true }

let all_sanitizers =
  { kasan = true; kcsan = true; kmemleak = false; ualign = false; ftrace = false }

let with_kmemleak s = { s with kmemleak = true }
let with_ualign s = { s with ualign = true }
let with_ftrace s = { s with ftrace = true }

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
  let headers =
    (if sanitizers.kasan then [ Api_spec.kasan () ] else [])
    @ (if sanitizers.kcsan then [ Api_spec.kcsan () ] else [])
    @ (if sanitizers.kmemleak then [ Api_spec.kmemleak () ] else [])
    @ (if sanitizers.ualign then begin
         (* a non-builtin plugin must be in the registry before attach *)
         Ualign.register ();
         [ Api_spec.ualign () ]
       end
       else [])
    @
    if sanitizers.ftrace then begin
      Ftrace.register ();
      [ Api_spec.ftrace () ]
    end
    else []
  in
  if headers = [] then invalid_arg "Embsan.prepare: no sanitizer selected";
  let distilled = Distiller.distill headers in
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
    s_sanitizers = sanitizers;
    s_spec = spec;
    s_platform = platform;
    s_mode = mode;
    s_image = image;
  }

(** The session's full specification in the textual DSL. *)
let spec_text session = Dsl.to_string session.s_spec

(** Testing phase: hook a fresh machine running the session's firmware.
    [kcsan_interval]/[kcsan_stall] are sugar for the ["kcsan.interval"] /
    ["kcsan.stall"] tuning keys. *)
let attach ?sink ?kcsan_interval ?kcsan_stall session machine =
  let tuning =
    (match kcsan_interval with
    | Some v -> [ ("kcsan.interval", v) ]
    | None -> [])
    @ match kcsan_stall with Some v -> [ ("kcsan.stall", v) ] | None -> []
  in
  Runtime.attach ~spec:session.s_spec ~mode:session.s_mode
    ~image:session.s_image ?sink ~tuning machine

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
