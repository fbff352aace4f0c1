(* Tests for the guest library: the four allocators, firmware builds and
   boots across modes and architectures, the bug registry (every reproducer
   detected, every benign sequence silent), and the Table-2 capability
   matrix. *)

open Embsan_isa
open Embsan_emu
open Embsan_guest
module Embsan = Embsan_core.Embsan
module Report = Embsan_core.Report
module Driver = Embsan_minic.Driver
module Codegen = Embsan_minic.Codegen

(* --- allocator correctness ---------------------------------------------------- *)

(* A MiniC harness exercising an allocator: pattern integrity across [n]
   live blocks, partial frees and reuse.  Returns 42 on success, a
   diagnostic code otherwise. *)
let allocator_harness ~alloc ~free ~blocks ~stride =
  Printf.sprintf
    {|
fun kmain() {
  kheap_init();
  arr ptrs[16];
  var n = %d;
  var i = 0;
  while (i < n) {
    var p = %s(16 + i * %d);
    if (p == 0) { return 100 + i; }
    memset(p, i + 1, 16 + i * %d);
    ptrs[i] = p;
    i = i + 1;
  }
  i = 0;
  while (i < n) {
    var j = 0;
    while (j < 16 + i * %d) {
      if (load8(ptrs[i] + j) != i + 1) { return 200 + i; }
      j = j + 1;
    }
    i = i + 1;
  }
  i = 0;
  while (i < n) {
    if (i %% 2) { %s(ptrs[i]); }
    i = i + 1;
  }
  var q = %s(40);
  if (q == 0) { return 300; }
  memset(q, 0xEE, 40);
  i = 0;
  while (i < n) {
    if ((i %% 2) == 0) {
      var k = 0;
      while (k < 16 + i * %d) {
        if (load8(ptrs[i] + k) != i + 1) { return 400 + i; }
        k = k + 1;
      }
    }
    i = i + 1;
  }
  %s(q);
  return 42;
}
|}
    blocks alloc stride stride stride free alloc stride free

let run_allocator_harness alloc_unit ~alloc ~free ~blocks ~stride =
  let img =
    Driver.compile Driver.default_config
      [
        Libk.unit_;
        alloc_unit;
        {
          src_name = "harness";
          code = allocator_harness ~alloc ~free ~blocks ~stride;
        };
      ]
  in
  let m = Machine.create ~arch:Arch.Arm_ev () in
  Machine.load_image m img;
  Machine.boot m;
  Machine.run m ~max_insns:10_000_000

let allocators =
  [
    ("slab", Alloc_slab.unit_, "kmalloc", "kfree");
    ("heap4", Alloc_heap4.unit_, "pvPortMalloc", "vPortFree");
    ("bestfit", Alloc_bestfit.unit_, "LOS_MemAlloc", "LOS_MemFree");
    ("vxheap", Alloc_vxheap.unit_, "memPartAlloc", "memPartFree");
  ]

let allocator_tests =
  List.map
    (fun (name, unit_, alloc, free) ->
      Alcotest.test_case name `Quick (fun () ->
          match run_allocator_harness unit_ ~alloc ~free ~blocks:8 ~stride:12 with
          | Machine.Halted 42 -> ()
          | Machine.Halted code -> Alcotest.failf "harness code %d" code
          | s -> Alcotest.failf "stop %a" Machine.pp_stop s))
    allocators

let allocator_qcheck =
  let open QCheck2 in
  Test.make ~name:"allocators survive random block counts/strides" ~count:12
    Gen.(
      triple (int_range 0 3) (int_range 2 12) (int_range 4 24))
    (fun (which, blocks, stride) ->
      let _, unit_, alloc, free = List.nth allocators which in
      match run_allocator_harness unit_ ~alloc ~free ~blocks ~stride with
      | Machine.Halted 42 -> true
      | _ -> false)

(* --- firmware builds and boots ------------------------------------------------- *)

let firmware_boots () =
  List.iter
    (fun (fw : Firmware_db.firmware) ->
      List.iter
        (fun mode ->
          (* closed-source firmware has no compile-time-instrumented build *)
          if not (fw.fw_source = Firmware_db.Closed && mode <> Codegen.Plain)
          then begin
            let img = fw.fw_build ~kcov:false mode in
            let m = Machine.create ~arch:fw.fw_arch () in
            Machine.load_image m img;
            Machine.boot m;
            Services.install m;
            List.iter
              (fun n -> Machine.set_trap_handler m n (fun _ _ -> ()))
              [ 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27; 28; 29 ];
            match Machine.run_until_ready m ~max_insns:30_000_000 with
            | None -> ()
            | Some stop ->
                Alcotest.failf "%s (%s) did not boot: %a" fw.fw_name
                  (match mode with
                  | Codegen.Plain -> "plain"
                  | Trap_callout -> "trap"
                  | Inline_kasan -> "native kasan"
                  | Inline_kcsan -> "native kcsan")
                  Machine.pp_stop stop
          end)
        [ Codegen.Plain; Codegen.Trap_callout; Codegen.Inline_kasan;
          Codegen.Inline_kcsan ])
    Firmware_db.all

let closed_firmware_is_stripped () =
  let fw = Option.get (Firmware_db.find "TP-Link WDR-7660") in
  Alcotest.(check bool) "shipped image stripped" true
    (Image.is_stripped (fw.fw_build ~kcov:false Codegen.Plain));
  Alcotest.(check bool) "truth image has symbols" false
    (Image.is_stripped (fw.fw_truth ~kcov:false Codegen.Plain))

let table1_inventory () =
  Alcotest.(check int) "eleven firmware images" 11 (List.length Firmware_db.all);
  let linux =
    List.filter (fun f -> f.Firmware_db.fw_base_os = "Embedded Linux") Firmware_db.all
  in
  Alcotest.(check int) "seven Linux-based" 7 (List.length linux);
  Alcotest.(check int) "41 registered bugs" 41
    (List.length (List.concat_map (fun f -> f.Firmware_db.fw_bugs) Firmware_db.all));
  Alcotest.(check int) "25 syzbot bugs" 25
    (List.length Firmware_db.syzbot_suite_fw.fw_bugs)

(* `embsan list` prints its Bugs column after each row: every row must
   render at the width of the header's columns. *)
let table1_rows_align () =
  let widths =
    List.sort_uniq compare
      (List.map
         (fun fw -> String.length (Fmt.str "%a" Firmware_db.pp_table1_row fw))
         (Firmware_db.all @ Firmware_db.suites))
  in
  Alcotest.(check (list int)) "one row width" [ 22 + 15 + 8 + 9 + 7 + 10 + 5 ]
    widths

(* --- bug registry: reproducers and benign paths -------------------------------- *)

let all_reproducers_detected () =
  List.iter
    (fun (fw : Firmware_db.firmware) ->
      List.iter
        (fun (b : Defs.bug) ->
          let o =
            Replay.run_reproducer fw
              (Replay.Embsan_cfg Embsan.all_sanitizers)
              b.b_syscalls
          in
          if not (Replay.detects b o) then
            Alcotest.failf "%s not detected on %s (reports: %s)" b.b_id
              fw.fw_name
              (String.concat "; " (List.map Report.title o.o_reports)))
        fw.fw_bugs)
    Firmware_db.all

let benign_sequences_silent () =
  List.iter
    (fun (fw : Firmware_db.firmware) ->
      List.iter
        (fun (b : Defs.bug) ->
          if b.b_benign <> [] then begin
            let o =
              Replay.run_reproducer fw
                (Replay.Embsan_cfg Embsan.all_sanitizers)
                b.b_benign
            in
            Alcotest.(check (list string))
              (Fmt.str "%s benign" b.b_id)
              []
              (List.map Report.title o.o_reports);
            Alcotest.(check bool)
              (Fmt.str "%s benign crash" b.b_id)
              true (o.o_crash = None)
          end)
        fw.fw_bugs)
    Firmware_db.all

(* --- race suite: known-race / known-no-race table ------------------------------- *)

module Campaign = Embsan_fuzz.Campaign

(* Replay a syscall sequence on the race-suite firmware under ftrace,
   optionally armed with a fuzzer-chosen schedule. *)
let race_replay ?sched calls =
  let fw = Firmware_db.race_suite_fw in
  let inst = Replay.boot fw (Replay.Embsan_cfg [ "ftrace" ]) in
  Campaign.arm
    (Campaign.controls ~sched:(sched <> None) ~rehost:false ~irq:false
       inst.Replay.machine)
    ~sched ~rehost:None;
  Replay.replay inst calls

let race_bug id =
  List.find
    (fun (b : Defs.bug) -> b.b_id = id)
    Firmware_db.race_suite_fw.fw_bugs

(* The table: which seeded race fires under which schedule.  The two
   plain races fire under the fixed round-robin rotation already; the
   starvation-window race is schedule-dependent by construction -- the
   fixed rotation can NEVER starve the syscall hart through the worker's
   delay loop, so only fuzzed interleavings reach it. *)
let race_suite_known_races () =
  List.iter
    (fun id ->
      let b = race_bug id in
      Alcotest.(check bool)
        (id ^ " detected under round-robin")
        true
        (Replay.detects b (race_replay b.b_syscalls)))
    [ "race-suite/unlocked_counter"; "race-suite/buf_missing_lock" ];
  let w = race_bug "race-suite/window_publication" in
  Alcotest.(check bool) "window race invisible to round-robin" false
    (Replay.detects w (race_replay w.b_syscalls));
  let fires seed = Replay.detects w (race_replay ~sched:seed w.b_syscalls) in
  Alcotest.(check bool) "window race reached by a fuzzed schedule" true
    (List.exists fires (List.init 24 (fun i -> i + 1)))

(* The synchronized counterparts (spinlock, irq-off section, atomic RMW)
   must stay silent under ftrace -- under the fixed rotation AND under
   fuzzed interleavings (happens-before precision, not sampling luck). *)
let race_suite_no_race_table () =
  List.iter
    (fun (b : Defs.bug) ->
      List.iter
        (fun sched ->
          let o = race_replay ?sched b.b_benign in
          Alcotest.(check (list string))
            (Fmt.str "%s benign (sched %a)" b.b_id
               Fmt.(option ~none:(any "rr") int)
               sched)
            []
            (List.map Report.title o.Replay.o_reports))
        [ None; Some 5; Some 11 ])
    Firmware_db.race_suite_fw.fw_bugs

(* KCSAN-vs-ftrace agreement: every seeded race KCSAN's sampled
   watchpoints CAN see under fuzzed schedules, the happens-before
   detector sees too (same budget, same seeds). *)
let kcsan_ftrace_agreement () =
  let module Campaign = Embsan_fuzz.Campaign in
  let found sanitizers =
    let cfg =
      {
        (Campaign.default_config Firmware_db.race_suite_fw) with
        sanitizers;
        max_execs = 300;
        seed = 1;
        stop_when_all_found = false;
        use_sched = true;
      }
    in
    List.sort_uniq compare
      (List.map
         (fun (f : Campaign.found) -> f.f_bug.Defs.b_id)
         (Campaign.run cfg).Campaign.r_found)
  in
  let kcsan = found Embsan.kcsan_only in
  let ftrace = found [ "ftrace" ] in
  Alcotest.(check bool) "kcsan saw at least one seeded race" true (kcsan <> []);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Fmt.str "ftrace agrees on %s" id)
        true (List.mem id ftrace))
    kcsan;
  Alcotest.(check int) "ftrace finds the full suite" 3 (List.length ftrace)

(* --- the Table-2 capability split ---------------------------------------------- *)

let capability_matrix_globals () =
  let fw = Firmware_db.syzbot_suite_fw in
  let globals =
    List.filter (fun (b : Defs.bug) -> b.b_class = Defs.Global_bug) fw.fw_bugs
  in
  Alcotest.(check int) "two global-OOB bugs" 2 (List.length globals);
  List.iter
    (fun (b : Defs.bug) ->
      let detect mode =
        Replay.detects b
          (Replay.run_reproducer fw
             (Replay.Embsan_mode (Embsan.kasan_only, mode))
             b.b_syscalls)
      in
      Alcotest.(check bool) (b.b_id ^ " under C") true (detect `C);
      Alcotest.(check bool) (b.b_id ^ " under D") false (detect `D);
      Alcotest.(check bool)
        (b.b_id ^ " under native")
        true
        (Replay.detects b
           (Replay.run_reproducer fw Replay.Native_kasan b.b_syscalls)))
    globals

(* Reports must symbolize to the paper's function names. *)
let reports_symbolize () =
  let fw = Firmware_db.syzbot_suite_fw in
  let bug =
    List.find
      (fun (b : Defs.bug) -> b.b_id = "syzbot/ieee80211_scan_rx")
      fw.fw_bugs
  in
  let o =
    Replay.run_reproducer fw
      (Replay.Embsan_mode (Embsan.kasan_only, `C))
      bug.b_syscalls
  in
  match o.o_reports with
  | [ r ] ->
      Alcotest.(check (option string)) "location" (Some "ieee80211_scan_rx")
        r.location;
      Alcotest.(check string) "kind" "use-after-free" (Report.kind_name r.kind)
  | l -> Alcotest.failf "expected 1 report, got %d" (List.length l)

(* The serve loops answer unknown syscalls with -ENOSYS and keep running. *)
let unknown_syscall_enosys () =
  List.iter
    (fun name ->
      let fw = Option.get (Firmware_db.find name) in
      let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.kasan_only) in
      let stop = Replay.syscall inst ~nr:95 ~args:[| 1; 2; 3 |] in
      Alcotest.(check bool) "no crash" true (stop = None);
      match Devices.mailbox_completions inst.machine.mailbox with
      | { ret; _ } :: _ ->
          Alcotest.(check int) "ENOSYS" (Embsan_isa.Word32.wrap (-38)) ret
      | [] -> Alcotest.fail "no completion")
    [ "OpenWRT-armvirt"; "InfiniTime"; "TP-Link WDR-7660" ]

let () =
  Alcotest.run "embsan_guest"
    [
      ("allocators", allocator_tests @ [ QCheck_alcotest.to_alcotest allocator_qcheck ]);
      ( "firmware",
        [
          Alcotest.test_case "table 1 inventory" `Quick table1_inventory;
          Alcotest.test_case "table 1 rows align" `Quick table1_rows_align;
          Alcotest.test_case "all builds boot (4 modes)" `Slow firmware_boots;
          Alcotest.test_case "closed firmware stripped" `Quick
            closed_firmware_is_stripped;
          Alcotest.test_case "unknown syscall -> ENOSYS" `Quick
            unknown_syscall_enosys;
        ] );
      ( "bug registry",
        [
          Alcotest.test_case "all reproducers detected" `Slow
            all_reproducers_detected;
          Alcotest.test_case "benign sequences silent" `Slow
            benign_sequences_silent;
          Alcotest.test_case "global OOB: C yes / D no" `Quick
            capability_matrix_globals;
          Alcotest.test_case "reports symbolize" `Quick reports_symbolize;
        ] );
      ( "race-suite",
        [
          Alcotest.test_case "known races detected" `Slow
            race_suite_known_races;
          Alcotest.test_case "no-race counterparts silent" `Slow
            race_suite_no_race_table;
          Alcotest.test_case "kcsan-vs-ftrace agreement" `Slow
            kcsan_ftrace_agreement;
        ] );
    ]
