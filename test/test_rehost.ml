(* Tests for the model-free MMIO rehosting layer: the mmio-suite image
   boots and runs with zero hand-written device model, memoized responses
   make replays deterministic, the IRQ-gated use-after-free fires only
   under injected interrupts, rehost state (memo table + pending IRQs)
   round-trips through the snapshot service, arming never flushes the
   translation cache, rehost seeds ride the corpus and minimize toward
   None, confirmed findings replay through [Campaign.arm], and the
   orchestrator reduces to [Campaign.run] at jobs=1 and stays
   repetition-stable at jobs=4 with rehosting on. *)

module Embsan = Embsan_core.Embsan
module Report = Embsan_core.Report
module Machine = Embsan_emu.Machine
module Devices = Embsan_emu.Devices
module Replay = Embsan_guest.Replay
module Firmware_db = Embsan_guest.Firmware_db
module Defs = Embsan_guest.Defs
module Rehost = Embsan_rehost.Rehost
module Rng = Embsan_fuzz.Rng
module Campaign = Embsan_fuzz.Campaign
module Orch = Embsan_orch.Orch
module Snap = Embsan_snap.Snap
module Progen = Embsan_check.Progen
module Oracle = Embsan_check.Oracle

let fw = Firmware_db.mmio_suite_fw

let boot () = Replay.boot fw (Replay.Embsan_cfg Embsan.kasan_only)

(* Arm [ctl] the way the campaign does: MMIO responses from one seeded
   stream, the optional injection plan from another.  [irq_seed] forces
   every plan draw to that value, pinning the injection shape the test
   wants (0 = one interrupt, 16 insns out). *)
let arm ?irq_seed ctl ~seed =
  let mr = Rng.create ~seed in
  let irq = Option.map (fun v -> fun n -> min v (n - 1)) irq_seed in
  Rehost.arm ?irq ctl ~mmio:(fun () -> Rng.next mr)

let last_ret inst = inst.Replay.machine.Machine.mailbox.Devices.last_ret

let run_call inst ~nr ~args =
  match Replay.syscall inst ~nr ~args with
  | None -> last_ret inst
  | Some stop -> Alcotest.failf "syscall %d crashed: %a" nr Machine.pp_stop stop

(* --- boot + determinism ------------------------------------------------- *)

let boots_without_device_model () =
  let inst = boot () in
  (* the window is untouched during boot, so no rehosting was needed;
     the interrupt stub announced itself via trap 12 *)
  Alcotest.(check bool) "irq stub registered" true
    (inst.Replay.machine.Machine.irq_entry >= 0);
  Alcotest.(check int) "no rehost reads at boot" 0
    inst.Replay.machine.Machine.stats.Embsan_emu.Engine_stats.rehost_reads

let memo_replays_within_exec () =
  let inst = boot () in
  let ctl = Rehost.create inst.Replay.machine in
  arm ctl ~seed:7;
  let r1 = run_call inst ~nr:58 ~args:[| 0 |] in
  let sites = Rehost.memo_size ctl in
  let r2 = run_call inst ~nr:58 ~args:[| 0 |] in
  Alcotest.(check int) "same sites replay the same responses" r1 r2;
  Alcotest.(check int) "no new sites on the second call" sites
    (Rehost.memo_size ctl);
  Alcotest.(check bool) "reads served" true
    (inst.Replay.machine.Machine.stats.Embsan_emu.Engine_stats.rehost_reads > 0)

let same_seed_same_responses () =
  let once () =
    let inst = boot () in
    let ctl = Rehost.create inst.Replay.machine in
    arm ctl ~seed:41;
    ignore (run_call inst ~nr:56 ~args:[| 5; 9 |]);
    run_call inst ~nr:58 ~args:[| 0 |]
  in
  Alcotest.(check int) "same seed, same trajectory" (once ()) (once ());
  let inst = boot () in
  let ctl = Rehost.create inst.Replay.machine in
  arm ctl ~seed:42;
  ignore (run_call inst ~nr:56 ~args:[| 5; 9 |]);
  Alcotest.(check bool) "different seed diverges" true
    (run_call inst ~nr:58 ~args:[| 0 |] <> once ())

(* --- the IRQ-gated bug --------------------------------------------------- *)

let uaf_report reports =
  List.exists
    (fun (r : Report.t) ->
      r.Report.kind = Report.Use_after_free
      && r.Report.location = Some "mmio_irq_handler")
    reports

let bug_needs_injection () =
  (* without injection: the stale-pending window opens but nothing ever
     runs the handler *)
  let inst = boot () in
  let ctl = Rehost.create inst.Replay.machine in
  arm ctl ~seed:3;
  ignore (run_call inst ~nr:56 ~args:[| 5; 9 |]);
  ignore (run_call inst ~nr:57 ~args:[||]);
  ignore (run_call inst ~nr:58 ~args:[| 0 |]);
  Alcotest.(check bool) "no injection, no report" false
    (uaf_report (Report.unique_reports inst.Replay.sink));
  (* with injection: one interrupt lands inside the stale window *)
  let inst = boot () in
  let ctl = Rehost.create inst.Replay.machine in
  arm ctl ~seed:3;
  ignore (run_call inst ~nr:56 ~args:[| 5; 9 |]);
  ignore (run_call inst ~nr:57 ~args:[||]);
  (* re-arm with an immediate single-point plan: the next turn vectors
     into the stub while md_pending is stale *)
  arm ctl ~seed:3 ~irq_seed:1;
  ignore (run_call inst ~nr:58 ~args:[| 0 |]);
  Alcotest.(check bool) "injected interrupt finds the UAF" true
    (uaf_report (Report.unique_reports inst.Replay.sink));
  Alcotest.(check bool) "interrupt was injected" true
    (inst.Replay.machine.Machine.stats.Embsan_emu.Engine_stats.irq_injected > 0)

let injection_is_transparent () =
  (* a benign-window injection (descriptor still live) must not disturb
     the syscall's architectural result *)
  let run ~irq_seed =
    let inst = boot () in
    let ctl = Rehost.create inst.Replay.machine in
    (match irq_seed with
    | None -> arm ctl ~seed:11
    | Some s -> arm ctl ~seed:11 ~irq_seed:s);
    ignore (run_call inst ~nr:56 ~args:[| 1; 2 |]);
    let r = run_call inst ~nr:58 ~args:[| 0 |] in
    (r, Report.unique_reports inst.Replay.sink)
  in
  let r_plain, reports_plain = run ~irq_seed:None in
  let r_inj, reports_inj = run ~irq_seed:(Some 5) in
  Alcotest.(check int) "same syscall result under injection" r_plain r_inj;
  Alcotest.(check bool) "no reports in the live window" false
    (uaf_report reports_plain || uaf_report reports_inj)

(* --- snapshot round-trip -------------------------------------------------- *)

let snapshot_roundtrip () =
  let inst = boot () in
  let m = inst.Replay.machine in
  let ctl = Rehost.create m in
  arm ctl ~seed:9 ~irq_seed:2;
  let pending0 = Rehost.pending_irqs ctl in
  Alcotest.(check bool) "plan drawn" true (pending0 > 0);
  let snap = Snap.capture ?runtime:inst.Replay.rt m in
  let r1 = run_call inst ~nr:56 ~args:[| 5; 9 |] in
  let memo1 = Rehost.memo_size ctl in
  Alcotest.(check bool) "memo grew" true (memo1 > 0);
  let reverted what snap ~memo ~pending =
    ignore (Snap.restore snap);
    Alcotest.(check int) (what ^ ": memo table reverted") memo
      (Rehost.memo_size ctl);
    Alcotest.(check int) (what ^ ": pending IRQs reverted") pending
      (Rehost.pending_irqs ctl);
    Alcotest.(check bool) (what ^ ": in-flight interrupt reverted") false
      (Rehost.in_irq ctl)
  in
  reverted "restore" snap ~memo:0 ~pending:pending0;
  (* the campaign's per-exec pattern: restore + re-arm from the seed
     replays the identical trajectory *)
  arm ctl ~seed:9 ~irq_seed:2;
  let r2 = run_call inst ~nr:56 ~args:[| 5; 9 |] in
  Alcotest.(check int) "restore + re-arm replays" r1 r2;
  (* a restore leaves its snapshot as it was: the memo the replay filled
     in is gone again *)
  reverted "second restore" snap ~memo:0 ~pending:pending0;
  (* a newer capture holds its own memo; the older snapshot still
     restores to an empty one, and the newer to its own after that *)
  arm ctl ~seed:9 ~irq_seed:2;
  ignore (run_call inst ~nr:56 ~args:[| 5; 9 |]);
  let pending1 = Rehost.pending_irqs ctl in
  let newer = Snap.capture ?runtime:inst.Replay.rt m in
  ignore (run_call inst ~nr:58 ~args:[| 0 |]);
  reverted "older after a newer capture" snap ~memo:0 ~pending:pending0;
  reverted "newer" newer ~memo:memo1 ~pending:pending1

(* --- zero-flush discipline ------------------------------------------------ *)

let toggles_never_flush () =
  let inst = boot () in
  let m = inst.Replay.machine in
  let flushes0 = m.Machine.stats.Embsan_emu.Engine_stats.flushes_invalidate in
  let ctl = Rehost.create m in
  arm ctl ~seed:1;
  ignore (run_call inst ~nr:58 ~args:[| 0 |]);
  Rehost.disarm ctl;
  arm ctl ~seed:2 ~irq_seed:3;
  ignore (run_call inst ~nr:58 ~args:[| 0 |]);
  Rehost.disarm ctl;
  Machine.set_rehost m None;
  Alcotest.(check int) "arming/disarming the rehost layer never flushes"
    flushes0 m.Machine.stats.Embsan_emu.Engine_stats.flushes_invalidate

(* --- campaign integration ------------------------------------------------- *)

let rehost_cfg ~irq ~seed ~execs =
  {
    (Campaign.default_config fw) with
    sanitizers = Embsan.kasan_only;
    max_execs = execs;
    seed;
    use_rehost = true;
    use_irq = irq;
  }

let campaign_finds_with_injection () =
  let r = Campaign.run (rehost_cfg ~irq:true ~seed:3 ~execs:600) in
  match r.Campaign.r_found with
  | [ f ] ->
      Alcotest.(check string) "the IRQ-gated UAF" "mmio-suite/irq_uaf"
        f.Campaign.f_bug.Defs.b_id;
      Alcotest.(check bool) "confirmed on a fresh instance" true
        f.Campaign.f_confirmed;
      Alcotest.(check bool) "reproducer needs its rehost seed" true
        (f.Campaign.f_rehost <> None)
  | l -> Alcotest.failf "expected exactly the irq_uaf, got %d bugs" (List.length l)

let campaign_never_without_injection () =
  let r = Campaign.run (rehost_cfg ~irq:false ~seed:3 ~execs:600) in
  Alcotest.(check int) "no injection, no bug" 0
    (List.length r.Campaign.r_found);
  Alcotest.(check int) "and no architectural crashes either" 0
    r.Campaign.r_crashes

(* Rehost seeds minimize toward None: on a firmware whose bugs fire
   without the rehost layer (nothing touches the window), confirmation
   must drop the seed even though every execution drew one. *)
let minimizes_rehost_to_none () =
  let fw = Option.get (Firmware_db.find "OpenHarmony-stm32f407") in
  let cfg =
    {
      (Campaign.default_config fw) with
      max_execs = 1500;
      seed = 3;
      use_rehost = true;
      use_irq = true;
    }
  in
  let r = Campaign.run cfg in
  Alcotest.(check bool) "found bugs" true (r.Campaign.r_found <> []);
  List.iter
    (fun (f : Campaign.found) ->
      Alcotest.(check bool)
        (f.Campaign.f_bug.Defs.b_id ^ " confirmed") true f.Campaign.f_confirmed;
      Alcotest.(check bool)
        (f.Campaign.f_bug.Defs.b_id ^ " needs no rehost seed")
        true
        (f.Campaign.f_rehost = None))
    r.Campaign.r_found

(* Every confirmed finding re-detects on a fresh boot armed through
   [Campaign.arm] with the seeds it was reported with — the path
   `embsan repro --rehost-seed N --irq` takes. *)
let findings_replay_through_arm () =
  let r = Campaign.run (rehost_cfg ~irq:true ~seed:3 ~execs:600) in
  Alcotest.(check bool) "found bugs" true (r.Campaign.r_found <> []);
  List.iter
    (fun (f : Campaign.found) ->
      let id = f.Campaign.f_bug.Defs.b_id in
      Alcotest.(check bool) (id ^ " confirmed") true f.Campaign.f_confirmed;
      let inst = boot () in
      Campaign.arm
        (Campaign.controls ~sched:(f.Campaign.f_sched <> None)
           ~rehost:(f.Campaign.f_rehost <> None) ~irq:f.Campaign.f_irq
           inst.Replay.machine)
        ~sched:f.Campaign.f_sched ~rehost:f.Campaign.f_rehost;
      let o =
        Replay.replay inst (Embsan_fuzz.Prog.to_reproducer f.Campaign.f_prog)
      in
      Alcotest.(check bool) (id ^ " re-detected") true
        (Replay.detects f.Campaign.f_bug o))
    r.Campaign.r_found

let found_key (f : Campaign.found) =
  (f.Campaign.f_bug.Defs.b_id, f.Campaign.f_exec, f.Campaign.f_rehost,
   f.Campaign.f_confirmed)

let result_key (r : Campaign.result) =
  ( List.sort compare (List.map found_key r.Campaign.r_found),
    r.Campaign.r_execs,
    r.Campaign.r_crashes,
    r.Campaign.r_corpus,
    r.Campaign.r_coverage,
    r.Campaign.r_insns,
    r.Campaign.r_unmatched )

(* An orchestrated single-worker rehost+IRQ campaign is bit-identical to
   [Campaign.run]: the per-exec restore, the knob arming and the
   confirmation replays run on the same engine path.  The campaign runs
   its whole budget: this seed finds the bug on its first exec, and
   stopping there would pin one exec instead of several epochs. *)
let jobs1_rehost_equals_campaign_run () =
  let cfg =
    {
      (rehost_cfg ~irq:true ~seed:3 ~execs:600) with
      stop_when_all_found = false;
    }
  in
  let direct = Campaign.run cfg in
  let orch =
    Orch.run { (Orch.default_config ~epoch_execs:64 fw) with campaign = cfg }
  in
  Alcotest.(check bool) "orchestrated jobs=1 result equals Campaign.run" true
    (result_key direct = result_key orch.Orch.o_campaign);
  Alcotest.(check int) "full budget" 600 direct.Campaign.r_execs;
  Alcotest.(check bool) "the UAF found" true (direct.Campaign.r_found <> [])

(* jobs=4 with rehosting on: the merged result must be stable across
   repetitions — rehost seeds ride the frontier exchange
   deterministically. *)
let orch_key (r : Orch.result) = (result_key r.Orch.o_campaign, r.Orch.o_epochs)

let jobs4_rehost_stable () =
  let run () =
    let cfg =
      {
        (Orch.default_config ~jobs:4 ~epoch_execs:50 fw) with
        campaign = rehost_cfg ~irq:true ~seed:5 ~execs:400;
        jobs = 4;
      }
    in
    orch_key (Orch.run cfg)
  in
  let a = run () and b = run () in
  Alcotest.(check bool)
    "jobs=4 rehosted campaign stable across two repetitions" true (a = b)

(* --- the rehost-transparency oracle ---------------------------------------- *)

(* Directed sample (the bounded seeded campaign runs in
   `make check-diff`): with the layer armed on both engines, memoized
   responses and injection points must be engine-invariant. *)
let rehost_transparency_sample () =
  let cfg = Oracle.default_cfg in
  List.iter
    (fun seed ->
      let p = Progen.generate ~arch:Embsan_isa.Arch.Arm_ev ~seed in
      match Oracle.rehost_transparency ~cfg p with
      | None, _ -> ()
      | Some d, _ -> Alcotest.failf "divergence: %a" Oracle.pp_divergence d)
    (List.init 20 (fun i -> 100 + i))

let () =
  Alcotest.run "embsan_rehost"
    [
      ( "rehost",
        [
          Alcotest.test_case "boots with zero device model" `Quick
            boots_without_device_model;
          Alcotest.test_case "memo replays within an exec" `Quick
            memo_replays_within_exec;
          Alcotest.test_case "same seed, same responses" `Quick
            same_seed_same_responses;
          Alcotest.test_case "bug needs injection" `Quick bug_needs_injection;
          Alcotest.test_case "injection is transparent" `Quick
            injection_is_transparent;
          Alcotest.test_case "snapshot round-trip" `Quick snapshot_roundtrip;
          Alcotest.test_case "toggles never flush" `Quick toggles_never_flush;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "finds the UAF with injection" `Slow
            campaign_finds_with_injection;
          Alcotest.test_case "never finds it without injection" `Slow
            campaign_never_without_injection;
          Alcotest.test_case "minimizes rehost seeds to None" `Slow
            minimizes_rehost_to_none;
          Alcotest.test_case "findings replay through Campaign.arm" `Slow
            findings_replay_through_arm;
          Alcotest.test_case "jobs=1 equals Campaign.run (rehost+IRQ)" `Slow
            jobs1_rehost_equals_campaign_run;
          Alcotest.test_case "jobs=4 repetition-stable" `Slow
            jobs4_rehost_stable;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "rehost-transparency sample" `Slow
            rehost_transparency_sample;
        ] );
    ]
