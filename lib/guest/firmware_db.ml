(* The evaluated firmware images (Table 1): name, base OS, architecture,
   EmbSan instrumentation mode, source availability and the fuzzer used,
   plus builders producing the actual images for any compilation mode (the
   native-sanitizer baselines recompile the same firmware). *)

open Embsan_isa
module Codegen = Embsan_minic.Codegen

(* Firmware image builds are deterministic; memoize them so replay-heavy
   benches do not recompile the same kernel hundreds of times.  The cache
   is process-global toplevel state reached concurrently by the campaign
   orchestrator's worker domains (every boot and every ground-truth
   symbolization builds through here), so lookup-or-build is one mutex
   critical section.  Built images are immutable, so handing the same
   [Image.t] to several domains is safe: [Machine.load_image] copies the
   sections into machine-private RAM. *)
let build_cache : (string, Image.t) Hashtbl.t = Hashtbl.create 64
let build_lock = Mutex.create ()

let memo_build name f ~kcov mode =
  let key =
    Printf.sprintf "%s/%b/%s" name kcov
      (match (mode : Codegen.mode) with
      | Plain -> "plain"
      | Trap_callout -> "trap"
      | Inline_kasan -> "ikasan"
      | Inline_kcsan -> "ikcsan")
  in
  Mutex.protect build_lock (fun () ->
      match Hashtbl.find_opt build_cache key with
      | Some img -> img
      | None ->
          let img = f ~kcov mode in
          Hashtbl.add build_cache key img;
          img)

type fuzzer = Syzkaller | Tardis

let fuzzer_name = function Syzkaller -> "Syzkaller" | Tardis -> "Tardis"

type source_avail = Open | Closed

type inst_mode = EmbSan_C | EmbSan_D

let inst_name = function EmbSan_C -> "EmbSan-C" | EmbSan_D -> "EmbSan-D"

type firmware = {
  fw_name : string;
  fw_base_os : string;
  fw_arch : Arch.t;
  fw_inst : inst_mode;
  fw_source : source_avail;
  fw_fuzzer : fuzzer;
  fw_smp : bool;
  fw_build : kcov:bool -> Codegen.mode -> Image.t;
  (* ground-truth image for evaluation scoring: identical layout, but with
     symbols even when the shipped firmware is stripped *)
  fw_truth : kcov:bool -> Codegen.mode -> Image.t;
  fw_syscalls : Defs.syscall_desc list;
  fw_bugs : Defs.bug list;
}

(* --- module sets for the Linux-family images ----------------------------------- *)

let linux_fw ~name ~arch ~inst ~fuzzer ?(smp = false) modules =
  {
    fw_name = name;
    fw_base_os = "Embedded Linux";
    fw_arch = arch;
    fw_inst = inst;
    fw_source = Open;
    fw_fuzzer = fuzzer;
    fw_smp = smp;
    fw_build =
      memo_build name (fun ~kcov mode ->
          Linux_kernel.build ~smp ~kcov ~arch ~mode modules);
    fw_truth =
      memo_build name (fun ~kcov mode ->
          Linux_kernel.build ~smp ~kcov ~arch ~mode modules);
    fw_syscalls = Linux_kernel.syscalls modules;
    fw_bugs = Linux_kernel.bugs modules;
  }

let openwrt_armvirt =
  linux_fw ~name:"OpenWRT-armvirt" ~arch:Arch.Arm_ev ~inst:EmbSan_C
    ~fuzzer:Syzkaller
    [
      Linux_net.netfilter;
      Linux_net.wireless;
      Linux_fs.nfs_common;
      Linux_drivers.eth_marvell;
      Linux_drivers.eth_realtek;
      Linux_drivers.eth_atheros;
    ]

let openwrt_bcm63xx =
  linux_fw ~name:"OpenWRT-bcm63xx" ~arch:Arch.Mips_ev ~inst:EmbSan_D
    ~fuzzer:Syzkaller
    [
      Linux_drivers.bluetooth;
      Linux_drivers.dma_bcm2835;
      Linux_drivers.scsi_aic7xxx;
      Linux_fs.btrfs ~uaf:true ~races:false;
      Linux_drivers.wifi_broadcom;
    ]

let openwrt_ipq807x =
  linux_fw ~name:"OpenWRT-ipq807x" ~arch:Arch.Arm_ev ~inst:EmbSan_C
    ~fuzzer:Syzkaller
    [
      Linux_drivers.eth_broadcom;
      Linux_net.sched ~classify_bug:true ~filter_bug:false;
      Linux_drivers.wifi_ath;
      Linux_fs.fuse;
    ]

let openwrt_mt7629 =
  linux_fw ~name:"OpenWRT-mt7629" ~arch:Arch.Arm_ev ~inst:EmbSan_C
    ~fuzzer:Syzkaller
    [
      Linux_drivers.eth_mediatek;
      Linux_fs.nfs;
      Linux_net.core;
      Linux_drivers.dma_mediatek;
    ]

let openwrt_rtl839x =
  linux_fw ~name:"OpenWRT-rtl839x" ~arch:Arch.Mips_ev ~inst:EmbSan_D
    ~fuzzer:Syzkaller
    [ Linux_drivers.eth_realtek; Linux_drivers.bt_realtek; Linux_net.netrom ]

let openwrt_x86_64 =
  linux_fw ~name:"OpenWRT-x86_64" ~arch:Arch.X86_ev ~inst:EmbSan_C
    ~fuzzer:Syzkaller ~smp:true
    [
      Linux_drivers.iommu;
      Linux_drivers.eth_realtek;
      Linux_drivers.eth_stmicro;
      Linux_drivers.wifi_iwlwifi;
      Linux_drivers.wifi_b43;
      Linux_fs.btrfs ~uaf:false ~races:true;
    ]

let openharmony_rk3566 =
  linux_fw ~name:"OpenHarmony-rk3566" ~arch:Arch.Arm_ev ~inst:EmbSan_C
    ~fuzzer:Tardis
    [
      Linux_fs.nfs;
      Linux_fs.nfs_common;
      Linux_net.sched ~classify_bug:false ~filter_bug:true;
    ]

(* --- RTOS images ------------------------------------------------------------------ *)

let liteos_fw ~name ~arch ~with_fat =
  let build =
    memo_build name (fun ~kcov mode ->
        let img, _, _ = Liteos_kernel.build ~with_fat ~kcov ~arch ~mode () in
        img)
  in
  let _, syscalls, bugs = Liteos_kernel.build ~with_fat ~arch ~mode:Codegen.Plain () in
  {
    fw_name = name;
    fw_base_os = "LiteOS";
    fw_arch = arch;
    fw_inst = EmbSan_D;
    fw_source = Open;
    fw_fuzzer = Tardis;
    fw_smp = false;
    fw_build = build;
    fw_truth = build;
    fw_syscalls = syscalls;
    fw_bugs = bugs;
  }

let openharmony_stm32mp1 =
  liteos_fw ~name:"OpenHarmony-stm32mp1" ~arch:Arch.Arm_ev ~with_fat:false

let openharmony_stm32f407 =
  liteos_fw ~name:"OpenHarmony-stm32f407" ~arch:Arch.Mips_ev ~with_fat:true

let infinitime =
  let build =
    memo_build "InfiniTime" (fun ~kcov mode ->
        let img, _, _ = Freertos_kernel.build ~kcov ~arch:Arch.Arm_ev ~mode () in
        img)
  in
  let _, syscalls, bugs = Freertos_kernel.build ~arch:Arch.Arm_ev ~mode:Codegen.Plain () in
  {
    fw_name = "InfiniTime";
    fw_base_os = "FreeRTOS";
    fw_arch = Arch.Arm_ev;
    fw_inst = EmbSan_D;
    fw_source = Open;
    fw_fuzzer = Tardis;
    fw_smp = false;
    fw_build = build;
    fw_truth = build;
    fw_syscalls = syscalls;
    fw_bugs = bugs;
  }

let tplink_wdr7660 =
  let build =
    memo_build "TP-Link" (fun ~kcov mode ->
        let img, _, _ =
          Vxworks_kernel.build ~stripped:true ~kcov ~arch:Arch.Arm_ev ~mode ()
        in
        img)
  in
  let truth =
    memo_build "TP-Link-truth" (fun ~kcov mode ->
        let img, _, _ =
          Vxworks_kernel.build ~stripped:false ~kcov ~arch:Arch.Arm_ev ~mode ()
        in
        img)
  in
  let _, syscalls, bugs =
    Vxworks_kernel.build ~stripped:true ~arch:Arch.Arm_ev ~mode:Codegen.Plain ()
  in
  {
    fw_name = "TP-Link WDR-7660";
    fw_base_os = "VxWorks";
    fw_arch = Arch.Arm_ev;
    fw_inst = EmbSan_D;
    fw_source = Closed;
    fw_fuzzer = Tardis;
    fw_smp = false;
    fw_build = build;
    fw_truth = truth;
    fw_syscalls = syscalls;
    fw_bugs = bugs;
  }

(** Table 1's eleven firmware images, in the paper's order. *)
let all =
  [
    openwrt_armvirt;
    openwrt_bcm63xx;
    openwrt_ipq807x;
    openwrt_mt7629;
    openwrt_rtl839x;
    openwrt_x86_64;
    openharmony_rk3566;
    openharmony_stm32mp1;
    openharmony_stm32f407;
    infinitime;
    tplink_wdr7660;
  ]

(** The Table-2 bug-suite firmware (syzbot replays); Embedded Linux with
    the 25-bug suite module. *)
let syzbot_suite_fw =
  linux_fw ~name:"syzbot-suite" ~arch:Arch.Arm_ev ~inst:EmbSan_C
    ~fuzzer:Syzkaller
    [ Syzbot_suite.suite ]

(* The compare-coverage demo: a heap bug behind a hard-coded 32-bit token.
   Random [Any32] draws essentially never produce the token, so the gated
   branch is unreachable for the plain mutator; with cmplog the guest's
   own [token == MAGIC] compare donates the constant to the operand
   dictionary (and the agreement-gradient features reward each matched
   byte), so the gate falls.  The bench's cmplog off/on A/B workload. *)
let magic_token = 0x51EC7A3D

let magic_gate_module : Defs.module_def =
  {
    m_name = "drv_magicgate";
    m_source =
      Printf.sprintf
        {|
var gate_obj = 0;

// BUG (drivers/magicgate, use after free): the privileged unlock path is
// guarded by a hard-coded 32-bit token; once entered it tears the gate
// object down and then reads its state word back.
fun magicgate_unlock(token) {
  if (gate_obj == 0) { gate_obj = kmalloc(32); store32(gate_obj, 7); }
  if (token == %d) {
    kfree(gate_obj);
    var v = load32(gate_obj);
    gate_obj = 0;
    return v;
  }
  return 0 - 1;
}

fun sys_magicgate(a, b, c) { return magicgate_unlock(a); }

fun drv_magicgate_init() {
  syscall_table[9] = &sys_magicgate;
  return 0;
}
|}
        magic_token;
    m_init = Some "drv_magicgate_init";
    m_syscalls =
      [ { sc_nr = 9; sc_name = "magicgate"; sc_args = [ Defs.Any32 ] } ];
    m_bugs =
      [
        {
          b_id = "demo/magicgate_unlock";
          b_paper_location = "drivers/magicgate";
          b_symbol = "magicgate_unlock";
          b_alt_symbols = [];
          b_kind = Embsan_core.Report.Use_after_free;
          b_class = Defs.Heap_bug;
          b_syscalls = [ (9, [| magic_token; 0; 0 |]) ];
          b_benign = [ (9, [| 1; 0; 0 |]) ];
        };
      ];
  }

let cmplog_gate_fw =
  linux_fw ~name:"cmplog-gate" ~arch:Arch.Arm_ev ~inst:EmbSan_C
    ~fuzzer:Syzkaller
    [ magic_gate_module ]

(* The race-detection bug suite: three seeded data races (plus synchronized
   counterparts) between the syscall hart and a worker hart the suite
   module starts itself.  The ftrace campaign / schedule-fuzzing A/B
   workload ([bench race]).  SMP stays off: the module owns its worker
   hart and annotates the fork edge itself. *)
let race_suite_fw =
  linux_fw ~name:"race-suite" ~arch:Arch.Arm_ev ~inst:EmbSan_C
    ~fuzzer:Syzkaller
    [ Race_suite.suite ]

(* The rehosting bug suite: a UART/DMA-ish driver whose registers live in
   unmapped MMIO space (no model in [lib/emu/devices.ml]) with an
   IRQ-gated use-after-free — only runnable under the model-free
   rehosting layer, only findable with injected interrupts.  The
   [bench rehost] injection off/on A/B workload. *)
let mmio_suite_fw =
  linux_fw ~name:"mmio-suite" ~arch:Arch.Arm_ev ~inst:EmbSan_C
    ~fuzzer:Syzkaller
    [ Mmio_suite.suite ]

(** The bug-suite and demo firmware beyond Table 1. *)
let suites = [ syzbot_suite_fw; cmplog_gate_fw; race_suite_fw; mmio_suite_fw ]

let find name =
  List.find_opt (fun f -> String.equal f.fw_name name) (all @ suites)

(** Prepare an EmbSan session for a firmware image in its Table-1 mode.
    [kcov] compiles guest coverage callouts in (the Syzkaller setup). *)
let embsan_firmware ?(kcov = false) fw =
  match (fw.fw_inst, fw.fw_source) with
  | EmbSan_C, _ ->
      Embsan_core.Embsan.Instrumented (fw.fw_build ~kcov Codegen.Trap_callout)
  | EmbSan_D, Open ->
      Embsan_core.Embsan.Source
        (fw.fw_build ~kcov Codegen.Plain, Embsan_core.Prober.no_hints)
  | EmbSan_D, Closed ->
      Embsan_core.Embsan.Binary
        (fw.fw_build ~kcov Codegen.Plain, Embsan_core.Prober.no_hints)

(** Force a specific EmbSan instrumentation mode (used by the overhead
    bench to measure both modes on the same firmware).  Closed-source
    firmware cannot be compile-time instrumented. *)
let embsan_firmware_mode ?(kcov = false) fw mode =
  match (mode, fw.fw_source) with
  | `C, Open -> Some (Embsan_core.Embsan.Instrumented (fw.fw_build ~kcov Codegen.Trap_callout))
  | `C, Closed -> None
  | `D, Open ->
      Some
        (Embsan_core.Embsan.Source
           (fw.fw_build ~kcov Codegen.Plain, Embsan_core.Prober.no_hints))
  | `D, Closed ->
      Some
        (Embsan_core.Embsan.Binary
           (fw.fw_build ~kcov Codegen.Plain, Embsan_core.Prober.no_hints))

let pp_table1_row fmt fw =
  Fmt.pf fmt "%-22s %-15s %-8s %-9s %-7s %-10s" fw.fw_name fw.fw_base_os
    (Arch.to_string fw.fw_arch) (inst_name fw.fw_inst)
    (match fw.fw_source with Open -> "Open" | Closed -> "Closed")
    (fuzzer_name fw.fw_fuzzer)
