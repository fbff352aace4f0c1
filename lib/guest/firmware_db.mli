(** The evaluated firmware images (Table 1): metadata, memoized builders
    for every compilation mode, syscall descriptions and the injected-bug
    registry. *)

type fuzzer = Syzkaller | Tardis

val fuzzer_name : fuzzer -> string

type source_avail = Open | Closed

type inst_mode = EmbSan_C | EmbSan_D

val inst_name : inst_mode -> string

type firmware = {
  fw_name : string;
  fw_base_os : string;
  fw_arch : Embsan_isa.Arch.t;
  fw_inst : inst_mode;
  fw_source : source_avail;
  fw_fuzzer : fuzzer;
  fw_smp : bool;
  fw_build : kcov:bool -> Embsan_minic.Codegen.mode -> Embsan_isa.Image.t;
  fw_truth : kcov:bool -> Embsan_minic.Codegen.mode -> Embsan_isa.Image.t;
      (** ground-truth image for evaluation scoring: identical layout, with
          symbols even when the shipped firmware is stripped *)
  fw_syscalls : Defs.syscall_desc list;
  fw_bugs : Defs.bug list;
}

(** Table 1's eleven firmware images, in the paper's order. *)
val all : firmware list

(** The Table-2 bug-suite firmware (the 25 syzbot replays). *)
val syzbot_suite_fw : firmware

(** The 32-bit token guarding {!cmplog_gate_fw}'s gated branch. *)
val magic_token : int

(** The compare-coverage demo firmware: one syscall whose use-after-free
    sits behind a [token == magic_token] guard that random argument draws
    essentially never satisfy — solvable only with the cmplog operand
    dictionary ({!Embsan_emu.Cmplog}).  The bench's cmplog off/on A/B
    workload. *)
val cmplog_gate_fw : firmware

(** The race-detection bug suite: three seeded data races between the
    syscall hart and a module-started worker hart, plus synchronized
    no-race counterparts.  The ftrace / schedule-fuzzing A/B workload
    ([bench race]). *)
val race_suite_fw : firmware

(** The rehosting bug suite: a UART/DMA-ish driver whose device registers
    live in unmapped MMIO space — no model in [lib/emu/devices.ml] — with
    an IRQ-gated use-after-free.  Only runnable under the model-free
    rehosting layer ([lib/rehost]), only findable with injected
    interrupts.  The injection off/on A/B workload ([bench rehost]). *)
val mmio_suite_fw : firmware

(** The bug-suite and demo firmware beyond Table 1: {!syzbot_suite_fw},
    {!cmplog_gate_fw}, {!race_suite_fw} and {!mmio_suite_fw}. *)
val suites : firmware list

(** The firmware of {!all} or {!suites} with this name. *)
val find : string -> firmware option

(** The firmware value [Embsan.prepare] expects, in the image's Table-1
    instrumentation mode. *)
val embsan_firmware : ?kcov:bool -> firmware -> Embsan_core.Embsan.firmware

(** Force a specific mode (overhead bench); [None] when impossible
    (compile-time instrumentation of closed-source firmware). *)
val embsan_firmware_mode :
  ?kcov:bool -> firmware -> [ `C | `D ] -> Embsan_core.Embsan.firmware option

val pp_table1_row : Format.formatter -> firmware -> unit
