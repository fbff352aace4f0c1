(* Tests for the snapshot service (lib/snap): per-device checkpoint
   round-trips, capture/restore identity on architectural state
   (property-based), O(touched) restore cost, the synced-image rule that
   decides when a restore copies every page, end-to-end restore of the
   host-side sanitizer runtime, and a source pin that keeps host state
   out of byte round trips. *)

open Embsan_emu
module Snap = Embsan_snap.Snap
module Snapshot = Embsan_check.Snapshot
module Report = Embsan_core.Report
module Embsan = Embsan_core.Embsan
module Replay = Embsan_guest.Replay
module Firmware_db = Embsan_guest.Firmware_db
module Rng = Embsan_fuzz.Rng
module Prog = Embsan_fuzz.Prog
module Campaign = Embsan_fuzz.Campaign

(* --- per-device round-trips ------------------------------------------------ *)

let dev_write (d : Device.t) ~offset ~value = d.write ~offset ~width:4 ~value
let dev_read (d : Device.t) ~offset = d.read ~offset ~width:4

let uart_roundtrip () =
  let state, dev = Devices.uart () in
  String.iter
    (fun c -> dev_write dev ~offset:0 ~value:(Char.code c))
    "checkpoint";
  let restore = dev.checkpoint () in
  String.iter (fun c -> dev_write dev ~offset:0 ~value:(Char.code c)) "-junk";
  Alcotest.(check string) "mutated" "checkpoint-junk" (Devices.uart_output state);
  restore ();
  Alcotest.(check string) "reverted" "checkpoint" (Devices.uart_output state)

let rng_roundtrip () =
  let dev = Devices.rng ~seed:42 in
  for _ = 1 to 5 do
    ignore (dev_read dev ~offset:0)
  done;
  let restore = dev.checkpoint () in
  let run () = List.init 8 (fun _ -> dev_read dev ~offset:0) in
  let first = run () in
  restore ();
  Alcotest.(check (list int)) "stream replays" first (run ())

let mailbox_roundtrip () =
  let state, dev = Devices.mailbox () in
  Devices.mailbox_push state ~nr:7 ~args:[| 1; 2; 3 |];
  Devices.mailbox_push state ~nr:9 ~args:[| 4; 5; 6 |];
  dev_write dev ~offset:0x28 ~value:1 (* ready doorbell *);
  (* serve the first request: read NR (pops), write RET, complete *)
  Alcotest.(check int) "nr" 7 (dev_read dev ~offset:0x04);
  dev_write dev ~offset:0x20 ~value:123;
  dev_write dev ~offset:0x24 ~value:1;
  let restore = dev.checkpoint () in
  (* mutate past the checkpoint: serve the second request, push a third *)
  Alcotest.(check int) "nr2" 9 (dev_read dev ~offset:0x04);
  dev_write dev ~offset:0x20 ~value:456;
  dev_write dev ~offset:0x24 ~value:1;
  Devices.mailbox_push state ~nr:11 ~args:[| 0; 0; 0 |];
  Alcotest.(check int) "two completions" 2
    (List.length (Devices.mailbox_completions state));
  (* host wiring installed before restore must survive it *)
  let completions_seen = ref 0 in
  state.on_complete <- (fun _ -> incr completions_seen);
  (* the same closure restores again after the restored request was
     served: nothing it holds was handed to the live queue *)
  List.iter
    (fun round ->
      let name what = Printf.sprintf "restore %d: %s" round what in
      restore ();
      Alcotest.(check bool) (name "ready survives") true
        (Devices.mailbox_ready state);
      (match Devices.mailbox_completions state with
      | [ { c_nr; ret } ] ->
          Alcotest.(check int) (name "completion nr") 7 c_nr;
          Alcotest.(check int) (name "completion ret") 123 ret
      | l ->
          Alcotest.failf "%s, got %d" (name "expected 1 completion")
            (List.length l));
      (* the queued request is back and flows through the restored device *)
      Alcotest.(check int) (name "queued nr back") 9
        (dev_read dev ~offset:0x04);
      Alcotest.(check int) (name "arg back") 5 (dev_read dev ~offset:0x0C);
      dev_write dev ~offset:0x20 ~value:99;
      dev_write dev ~offset:0x24 ~value:1;
      Alcotest.(check int) (name "wiring survives restore") round
        !completions_seen;
      Alcotest.(check bool) (name "idle after draining") true
        (Devices.mailbox_idle state))
    [ 1; 2 ]

(* --- capture/restore identity ---------------------------------------------- *)

let ram_base = 0x1_0000
let ram_size = 256 * 1024 (* 64 pages *)

(* Every device registered on the machine (uart, power, mailbox, timer,
   rng) must survive a Snap capture/restore: after arbitrary MMIO traffic
   on both sides of the checkpoint, the devices show what they showed at
   capture time -- the console, the mailbox completions and flags, and a
   read of every register.  A read can change state (it pops the mailbox
   queue and steps the RNG), so each one is made from a fresh restore. *)
let device_op =
  QCheck2.Gen.(
    pair
      (pair (int_range 0 31) bool)
      (pair (int_range 0 0xFC) (int_range 0 0xFFFF_FFFF)))

let device_traffic m ops =
  let ds = m.Machine.devices in
  List.iteri
    (fun i ((di, is_read), (off, value)) ->
      let d = ds.(di mod Array.length ds) in
      let off = off land lnot 3 in
      if i land 7 = 0 then
        Devices.mailbox_push m.Machine.mailbox ~nr:(value land 0xFF)
          ~args:[| off; value; i |];
      if is_read then ignore (d.Device.read ~offset:off ~width:4 : int)
      else
        try d.Device.write ~offset:off ~width:4 ~value
        with Fault.Halted _ -> () (* the power-off register *))
    ops

let make_machine () =
  Machine.create ~harts:2 ~ram_base ~ram_size ~arch:Embsan_isa.Arch.Arm_ev ()

(* Apply a deterministic batch of state mutations derived from [writes]:
   RAM stores (width-aligned), register writes and pc bumps. *)
let mutate m writes =
  List.iter
    (fun (off, width, value) ->
      let off = off mod (ram_size - 4) in
      let off = off - (off mod width) in
      Machine.write_mem m ~addr:(ram_base + off) ~width ~value;
      let h = m.Machine.harts.(off mod Array.length m.Machine.harts) in
      h.Cpu.regs.(1 + (value mod (Embsan_isa.Reg.count - 1))) <-
        value land 0xFFFF_FFFF;
      h.Cpu.pc <- ram_base + (value land 0xFFC))
    writes

let restore_identity =
  QCheck2.Test.make ~name:"restore is identity on architectural state"
    ~count:50
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60)
           (triple (int_range 0 (ram_size - 1)) (oneofl [ 1; 2; 4 ])
              (int_range 0 0xFFFF_FFFF)))
        (list_size (int_range 0 60)
           (triple (int_range 0 (ram_size - 1)) (oneofl [ 1; 2; 4 ])
              (int_range 0 0xFFFF_FFFF))))
    (fun (pre, post) ->
      let m = make_machine () in
      mutate m pre;
      let snap = Snap.capture m in
      let reference = Snapshot.capture m in
      mutate m post;
      let reverted = Snap.restore snap in
      let after = Snapshot.capture m in
      (* O(touched): never more pages than distinct page-touching writes *)
      reverted <= List.length post
      && Snapshot.diff reference after = []
      (* a second restore has nothing left to revert *)
      && Snap.restore snap = 0
      && Snapshot.diff reference (Snapshot.capture m) = [])

let all_devices_roundtrip =
  QCheck2.Test.make
    ~name:"every registered device survives Snap round-trip bit-identically"
    ~count:50
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 50) device_op)
        (list_size (int_range 0 50) device_op))
    (fun (pre, post) ->
      let m = make_machine () in
      device_traffic m pre;
      let snap = Snap.capture m in
      let observe () =
        let mb = m.Machine.mailbox in
        let shown =
          ( Machine.console_output m,
            Devices.mailbox_completions mb,
            (Devices.mailbox_ready mb, Devices.mailbox_idle mb) )
        in
        let reads =
          Array.map
            (fun (d : Device.t) ->
              List.init (0x100 / 4) (fun i ->
                  ignore (Snap.restore snap : int);
                  d.read ~offset:(4 * i) ~width:4))
            m.Machine.devices
        in
        (shown, reads)
      in
      let at_capture = observe () in
      device_traffic m post;
      ignore (Snap.restore snap : int);
      observe () = at_capture)

let restore_cost_is_o_touched () =
  let m = make_machine () in
  let snap = Snap.capture m in
  List.iter
    (fun touched ->
      for p = 0 to touched - 1 do
        Machine.write_mem m
          ~addr:(ram_base + (p * Ram.page_size))
          ~width:4 ~value:0xDEAD
      done;
      Alcotest.(check int)
        (Printf.sprintf "%d pages reverted" touched)
        touched (Snap.restore snap))
    [ 1; 7; 33; 64 ]

let full_restore_for_stale_snapshot () =
  let m = make_machine () in
  let older = Snap.capture m in
  Machine.write_mem m ~addr:ram_base ~width:4 ~value:1;
  let newer = Snap.capture m in
  (* capturing [newer] synced RAM to it, so the page-0 store is no longer
     dirty: restoring [older] must copy every page *)
  Machine.write_mem m ~addr:(ram_base + Ram.page_size) ~width:4 ~value:2;
  Alcotest.(check int) "full revert moves all pages"
    (ram_size / Ram.page_size)
    (Snap.restore older);
  Alcotest.(check int) "word back" 0
    (Machine.read_mem m ~addr:ram_base ~width:4);
  Alcotest.(check int) "newer still usable via full" (ram_size / Ram.page_size)
    (Snap.restore newer);
  Alcotest.(check int) "newer word" 1 (Machine.read_mem m ~addr:ram_base ~width:4)

(* The guest registers its interrupt stub through a hypercall, so the
   stub's entry is guest-written machine state: a registration made
   after a capture must not survive the restore. *)
let irq_entry_reverts () =
  let m = make_machine () in
  m.Machine.irq_entry <- 0x1_0040;
  let snap = Snap.capture m in
  m.Machine.irq_entry <- 0x1_0080;
  ignore (Snap.restore snap : int);
  Alcotest.(check int) "registered stub reverts" 0x1_0040 m.Machine.irq_entry

(* The RAM counterpart of test_core's dirty-chunk property: whatever mix
   of captures, stores (page-straddling ones included), bulk writes and
   restores of older snapshots came before, a restore leaves RAM equal
   to the snapshot's image.  A model of the rule
   predicts the cost: the pages written since the last sync when RAM is
   synced to that snapshot, every page otherwise.  It predicts what a
   capture holds too: the synced image's buffer for every page not
   written since, and a private copy of every other page. *)
type step =
  | Capture
  | Store of int * int * int (* offset, width, value *)
  | Blit of int * string
  | Restore of int (* index among the kept snapshots *)

let pp_step = function
  | Capture -> "capture"
  | Store (off, w, v) -> Printf.sprintf "store%d 0x%x=0x%x" (8 * w) off v
  | Blit (off, s) -> Printf.sprintf "blit 0x%x len %d" off (String.length s)
  | Restore i -> Printf.sprintf "restore #%d" i

let step_gen =
  let open QCheck2.Gen in
  let pages = ram_size / Ram.page_size in
  (* a third of the stores start 1-3 bytes before a page boundary, so
     most W16/W32 ones among them straddle it *)
  let offset width =
    frequency
      [
        (2, int_range 0 (ram_size - width));
        ( 1,
          map
            (fun (p, d) -> (p * Ram.page_size) - d)
            (pair (int_range 1 (pages - 1)) (int_range 1 3)) );
      ]
  in
  frequency
    [
      (2, pure Capture);
      ( 8,
        oneofl [ 1; 2; 4 ] >>= fun w ->
        map2 (fun off v -> Store (off, w, v)) (offset w) (int_range 0 0xFFFF_FFFF)
      );
      ( 1,
        int_range 0 (3 * Ram.page_size) >>= fun len ->
        map2
          (fun off c -> Blit (off, String.make len c))
          (int_range 0 (ram_size - len))
          printable );
      (3, map (fun i -> Restore i) (int_range 0 2));
    ]

let restore_equals_image =
  QCheck2.Test.make ~name:"restore equals the captured image" ~count:200
    ~print:(fun steps -> String.concat "; " (List.map pp_step steps))
    QCheck2.Gen.(list_size (int_range 1 40) step_gen)
    (fun steps ->
      let m = make_machine () in
      let ram = m.Machine.ram in
      let mem = ram.Ram.mem in
      (* kept snapshots, newest first, each with a copy of RAM at capture *)
      let kept = ref [] in
      (* the model: the snapshot RAM is synced to, and the pages written
         since that sync *)
      let synced = ref None and written = ref [] in
      let capture () =
        let dirty = List.sort_uniq compare !written in
        let snap = Snap.capture m in
        let img = Snap.ram_image snap in
        (match !synced with
        | Some prev ->
            let prev = Snap.ram_image prev in
            for p = 0 to Pages.page_count mem - 1 do
              let shared = Pages.page img p == Pages.page prev p in
              if shared = List.mem p dirty then
                QCheck2.Test.fail_reportf "capture: page %d shared = %b" p
                  shared
            done
        | None ->
            (* the first capture's synced image is the all-zero one *)
            if Pages.private_pages img <> List.length dirty then
              QCheck2.Test.fail_reportf "capture holds %d pages, model %d"
                (Pages.private_pages img) (List.length dirty));
        kept :=
          List.filteri (fun i _ -> i < 3)
            ((snap, Bytes.copy mem.Pages.bytes) :: !kept);
        synced := Some snap;
        written := []
      in
      let wrote off len =
        written :=
          List.init len (fun i -> (off + i) lsr Ram.page_shift) @ !written
      in
      capture ();
      List.for_all
        (function
          | Capture ->
              capture ();
              true
          | Store (off, w, v) ->
              Machine.write_mem m ~addr:(ram_base + off) ~width:w ~value:v;
              wrote off w;
              true
          | Blit (off, s) ->
              Ram.blit_string ram ~addr:(ram_base + off) s;
              wrote off (String.length s);
              true
          | Restore i ->
              let snap, image = List.nth !kept (i mod List.length !kept) in
              let expected =
                match !synced with
                | Some s when s == snap ->
                    List.length (List.sort_uniq compare !written)
                | _ -> Pages.page_count mem
              in
              let pages = Snap.restore snap in
              synced := Some snap;
              written := [];
              pages = expected && Bytes.equal mem.Pages.bytes image)
        steps)

(* --- post-boot capture cost ------------------------------------------------ *)

(* RAM starts synced to the all-zero image and loading the firmware
   re-syncs it (leaving no page dirty), so the post-boot snapshot holds
   privately exactly the pages the loader and the boot wrote; every other
   page is the shared zero page.  The counts are pinned: a capture that
   copies more than it must, or a boot that writes more, shows here. *)
let post_boot_snapshot_is_sparse () =
  List.iter
    (fun (name, expected) ->
      let fw = Option.get (Firmware_db.find name) in
      (* booted as a KASAN campaign boots it *)
      let kcov = fw.fw_fuzzer = Firmware_db.Syzkaller in
      let sanitizers = Embsan.kasan_only in
      let image = (Replay.session_for ~kcov fw sanitizers).s_image in
      let inst = Replay.boot ~kcov fw (Replay.Embsan_cfg sanitizers) in
      let ram = inst.Replay.machine.Machine.ram in
      let pages = List.init (Pages.page_count ram.Ram.mem) Fun.id in
      let page addr = (addr - Ram.base ram) lsr Ram.page_shift in
      let loaded p =
        List.exists
          (fun (s : Embsan_isa.Image.section) ->
            s.data <> ""
            && page s.base <= p
            && p <= page (s.base + String.length s.data - 1))
          image.sections
      in
      let written =
        List.filter (fun p -> Pages.is_dirty ram.Ram.mem p || loaded p) pages
      in
      let fresh =
        Machine.create ~ram_base:(Ram.base ram) ~ram_size:(Ram.size ram)
          ~arch:image.arch ()
      in
      Machine.load_image fresh image;
      if List.exists (Pages.is_dirty fresh.Machine.ram.Ram.mem) pages then
        Alcotest.failf "%s: a page is dirty after load_image" name;
      let img =
        Snap.ram_image
          (Snap.capture ?runtime:inst.Replay.rt inst.Replay.machine)
      in
      let held = Pages.private_pages img in
      Alcotest.(check int) (name ^ ": pages held privately") expected held;
      Alcotest.(check int)
        (name ^ ": pages written")
        held (List.length written);
      (* the unwritten pages are one buffer, which the count above makes
         the zero page *)
      match List.filter (fun p -> not (List.mem p written)) pages with
      | [] -> ()
      | p0 :: rest ->
          List.iter
            (fun p ->
              if Pages.page img p != Pages.page img p0 then
                Alcotest.failf "%s: unwritten page %d is held privately" name
                  p)
            rest)
    [
      ("OpenWRT-bcm63xx", 12);
      ("mmio-suite", 12);
      ("OpenHarmony-stm32f407", 8);
      ("InfiniTime", 8);
      ("TP-Link WDR-7660", 8);
    ]

(* --- sanitizer runtime state ------------------------------------------------ *)

(* End to end on real firmware: trigger a KASAN bug, restore, and check
   that the report sink (and its dedup table) reverted -- re-triggering
   after the restore must produce the report again, not hit the dedup.
   Twice, since a restore must leave its snapshot as it was.  InfiniTime
   is captured after the call that allocates the framebuffer its bug
   frees: KASAN's allocation records are mutable, so a restore that
   handed the captured record to the live table would carry the first
   re-trigger's free into the second restore, which then sees a double
   free instead of the use-after-free. *)
let runtime_state_restores () =
  List.iter
    (fun (name, bug_id, prefix) ->
      let fw = Option.get (Firmware_db.find name) in
      let bug =
        List.find
          (fun (b : Embsan_guest.Defs.bug) -> b.b_id = bug_id)
          fw.fw_bugs
      in
      let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.all_sanitizers) in
      let setup = List.filteri (fun i _ -> i < prefix) bug.b_syscalls
      and trigger = List.filteri (fun i _ -> i >= prefix) bug.b_syscalls in
      ignore (Replay.replay inst setup);
      let snap = Snap.capture ?runtime:inst.Replay.rt inst.Replay.machine in
      let report_titles () =
        List.map Report.title (Report.unique_reports inst.Replay.sink)
      in
      Alcotest.(check (list string)) (name ^ ": clean at capture") []
        (report_titles ());
      ignore (Replay.replay inst trigger);
      let first = report_titles () in
      Alcotest.(check bool) (name ^ ": trigger reports") true (first <> []);
      List.iter
        (fun round ->
          let what s = Printf.sprintf "%s, restore %d: %s" name round s in
          ignore (Snap.restore snap : int);
          Alcotest.(check (list string)) (what "sink reverted") []
            (report_titles ());
          ignore (Replay.replay inst trigger);
          Alcotest.(check (list string)) (what "re-trigger reports again")
            first (report_titles ()))
        [ 1; 2 ])
    [
      ("OpenHarmony-stm32f407", "liteos/vfs_path_lookup", 0);
      ("InfiniTime", "freertos/st7789_flush", 1);
    ]

(* --- translation cache across restores ---------------------------------- *)

(* The per-exec restore path (mmio-suite under rehosting with IRQ
   injection): one instance keeps its translations across restores, the
   other flushes after each one, as every restore used to.  Reviving a
   kept block must be indistinguishable from retranslating it, exec by
   exec, while translating a small fraction of the blocks. *)
let warm_cache_replays_like_cold () =
  let fw = Firmware_db.mmio_suite_fw in
  let instance () =
    let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.kasan_only) in
    let cov = Coverage.create ~harts:2 in
    Coverage.attach_tcg cov inst.Replay.machine;
    let ctl =
      Campaign.controls ~sched:false ~rehost:true ~irq:true inst.Replay.machine
    in
    (inst, cov, ctl, Snap.capture ?runtime:inst.Replay.rt inst.Replay.machine)
  in
  (* one exec as the campaign runs it: restore, arm the rehost seed's MMIO
     and IRQ streams, replay *)
  let exec ~cold (inst, cov, ctl, snap) (prog, seed) =
    let m = inst.Replay.machine in
    ignore (Snap.restore snap : int);
    if cold then Machine.flush_tcg m;
    Campaign.arm ctl ~sched:None ~rehost:(Some seed);
    Coverage.reset_edges cov;
    let o = Replay.replay inst (Prog.to_reproducer prog) in
    ( o.Replay.o_insns,
      Coverage.signature cov,
      List.map Report.title o.Replay.o_reports,
      o.Replay.o_crash )
  in
  let rng = Rng.create ~seed:1 in
  let inputs =
    List.init 500 (fun _ ->
        let prog = Prog.gen rng fw.Firmware_db.fw_syscalls in
        (prog, Rng.next rng land 0x3FFF_FFFF))
  in
  let warm = instance () and cold = instance () in
  let translations (inst, _, _, _) =
    inst.Replay.machine.Machine.stats.Engine_stats.translations
  in
  let warm0 = translations warm and cold0 = translations cold in
  List.iteri
    (fun i input ->
      if exec ~cold:false warm input <> exec ~cold:true cold input then
        Alcotest.failf "exec %d: the warm cache diverged from the flushed one" i)
    inputs;
  let warm_n = translations warm - warm0 and cold_n = translations cold - cold0 in
  if warm_n * 20 >= cold_n then
    Alcotest.failf "warm cache translated %d blocks, flushed %d (want < 5%%)"
      warm_n cold_n

(* A restore that revalidates keeps the translation cache live, chain
   links and generation included.  After a snapshot's first restore,
   which flushes, each input is replayed once to warm the cache and its
   links; every later restore + replay cycle of the same input must then
   translate nothing, miss nothing, leave the generation where it is and
   repeat the same table-hit and chained-transfer counts. *)
let revalidating_restore_keeps_cache_live () =
  let fw = Firmware_db.mmio_suite_fw in
  let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.kasan_only) in
  let m = inst.Replay.machine in
  let cov = Coverage.create ~harts:2 in
  Coverage.attach_tcg cov m;
  let ctl = Campaign.controls ~sched:false ~rehost:true ~irq:true m in
  let snap = Snap.capture ?runtime:inst.Replay.rt m in
  let s = m.Machine.stats in
  (* one exec as the campaign runs it, and the engine traffic it caused:
     translations, misses, generation moves, table hits, chained
     transfers, and the insns it retired *)
  let cycle (prog, seed) =
    let t0 = s.translations and mi0 = s.cache_misses and g0 = m.tcg_gen in
    let h0 = s.cache_hits and c0 = s.chained in
    ignore (Snap.restore snap : int);
    Campaign.arm ctl ~sched:None ~rehost:(Some seed);
    Coverage.reset_edges cov;
    let o = Replay.replay inst (Prog.to_reproducer prog) in
    ( (s.translations - t0, s.cache_misses - mi0, m.tcg_gen - g0),
      (s.cache_hits - h0, s.chained - c0, o.Replay.o_insns) )
  in
  let rng = Rng.create ~seed:3 in
  for i = 1 to 4 do
    let input =
      (Prog.gen rng fw.Firmware_db.fw_syscalls, Rng.next rng land 0x3FFF_FFFF)
    in
    ignore (cycle input);
    let live, traffic = cycle input in
    let name what = Printf.sprintf "input %d: %s" i what in
    Alcotest.(check (triple int int int))
      (name "translations, misses, generation moves")
      (0, 0, 0) live;
    let _, chained, _ = traffic in
    Alcotest.(check bool) (name "chained transfers") true (chained > 0);
    for _ = 1 to 3 do
      let live', traffic' = cycle input in
      Alcotest.(check (triple int int int))
        (name "still live") (0, 0, 0) live';
      Alcotest.(check (triple int int int))
        (name "hits, chained, insns repeat")
        traffic traffic'
    done
  done

(* Code written after capture.  A block translated before the write runs
   stale until the restore reverts the write, and is then reused without
   retranslation.  A block translated from the written bytes is a suspect:
   the restore finds its bytes changed and flushes.  Either way the next
   run matches a fresh machine. *)
let self_modifying_code () =
  let open Embsan_isa in
  let text =
    Asm.
      [
        Label "main";
        call "f";
        mv Reg.t0 Reg.a0;
        la Reg.t1 "sel";
        load Insn.W32 Reg.t2 Reg.t1 0;
        beqz Reg.t2 "done";
        call "g";
        Ins (Insn.Alu (Insn.Add, Reg.t0, Reg.t0, Reg.a1));
        Label "done";
        mv Reg.a0 Reg.t0;
        halt;
        Label "f";
        li Reg.a0 5;
        ret;
        Label "g";
        li Reg.a1 7;
        ret;
      ]
  in
  let data = Asm.[ Label "sel"; Words [ 0 ] ] in
  let img =
    Asm.assemble ~arch:Arch.Arm_ev ~text_base:ram_base ~entry:"main"
      [ { Asm.unit_name = "t"; text; data } ]
  in
  let sym = Image.symbol_addr_exn img in
  let boot () =
    let m = make_machine () in
    Machine.load_image m img;
    Machine.boot m;
    m
  in
  let poke m ~addr insn =
    String.iteri
      (fun i c ->
        Machine.write_mem m ~addr:(addr + i) ~width:1 ~value:(Char.code c))
      (Codec.encode Arch.Arm_ev insn)
  in
  let set_sel m = Machine.write_mem m ~addr:(sym "sel") ~width:4 ~value:1 in
  let run m =
    let stop = Machine.run m ~max_insns:1000 in
    (stop, m.Machine.total_insns, Array.copy m.Machine.harts.(0).Cpu.regs)
  in
  let fresh prepare =
    let m = boot () in
    prepare m;
    run m
  in
  let m = boot () in
  let snap = Snap.capture m in
  ignore (Snap.restore snap : int) (* the first restore flushes *);
  Alcotest.(check bool) "first run" true (run m = fresh ignore);
  (* f is cached: overwrite its code, and the restore reverts the bytes f
     was translated from, so f is kept *)
  poke m ~addr:(sym "f") (Insn.Li (Reg.a0, 9));
  let translations = m.Machine.stats.Engine_stats.translations in
  let flushes = m.Machine.stats.Engine_stats.flushes_invalidate in
  ignore (Snap.restore snap : int);
  Alcotest.(check bool) "reverted code: as fresh" true (run m = fresh ignore);
  Alcotest.(check int) "blocks reused" translations
    m.Machine.stats.Engine_stats.translations;
  Alcotest.(check int) "no flush" flushes
    m.Machine.stats.Engine_stats.flushes_invalidate;
  (* g was never run: it is translated from the written bytes *)
  ignore (Snap.restore snap : int);
  set_sel m;
  poke m ~addr:(sym "g") (Insn.Li (Reg.a1, 30));
  (match run m with
  | Machine.Halted 35, _, _ -> ()
  | s, _, _ -> Alcotest.failf "patched g: %a" Machine.pp_stop s);
  ignore (Snap.restore snap : int);
  Alcotest.(check int) "changed suspect flushes" (flushes + 1)
    m.Machine.stats.Engine_stats.flushes_invalidate;
  set_sel m;
  let after = run m in
  Alcotest.(check bool) "after the flush: as fresh" true (after = fresh set_sel);
  match after with
  | Machine.Halted 12, _, _ -> ()
  | s, _, _ -> Alcotest.failf "original g: %a" Machine.pp_stop s

(* --- sources ------------------------------------------------------------- *)

(* No snapshot leaves the process, so no host state is encoded to bytes:
   a component checkpoints by capturing its state in a restore closure.
   Pinned over every OCaml source of lib/ and bin/, so a byte round trip
   -- and the decoding of untrusted bytes it brings -- cannot come back
   unnoticed. *)
let no_marshal_in_sources () =
  (* cwd is _build/default/test under `dune runtest`, the workspace root
     under `dune exec` -- accept either *)
  let resolve rel =
    if Sys.file_exists ("../" ^ rel) then "../" ^ rel else rel
  in
  let rec sources dir =
    List.concat_map
      (fun name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then sources path
        else if Filename.check_suffix name ".ml"
                || Filename.check_suffix name ".mli"
        then [ path ]
        else [])
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  let contains text word =
    let n = String.length word in
    let rec go i =
      i + n <= String.length text
      && (String.sub text i n = word || go (i + 1))
    in
    go 0
  in
  let files =
    List.concat_map (fun d -> sources (resolve d)) [ "lib"; "bin" ]
  in
  Alcotest.(check bool) "sources found" true (List.length files > 50);
  let offenders =
    List.concat_map
      (fun path ->
        let text = In_channel.with_open_bin path In_channel.input_all in
        List.filter_map
          (fun word ->
            if contains text word then Some (path ^ ": " ^ word) else None)
          [ "Marshal"; "input_value"; "output_value" ])
      files
  in
  Alcotest.(check (list string)) "byte round trips" [] offenders

let () =
  Alcotest.run "embsan_snap"
    [
      ( "devices",
        [
          Alcotest.test_case "uart round-trip" `Quick uart_roundtrip;
          Alcotest.test_case "rng round-trip" `Quick rng_roundtrip;
          Alcotest.test_case "mailbox round-trip" `Quick mailbox_roundtrip;
        ] );
      ( "snapshot",
        [
          QCheck_alcotest.to_alcotest restore_identity;
          QCheck_alcotest.to_alcotest all_devices_roundtrip;
          Alcotest.test_case "restore cost is O(touched)" `Quick
            restore_cost_is_o_touched;
          Alcotest.test_case "stale snapshot restores fully" `Quick
            full_restore_for_stale_snapshot;
          Alcotest.test_case "irq stub registration reverts" `Quick
            irq_entry_reverts;
          QCheck_alcotest.to_alcotest restore_equals_image;
          Alcotest.test_case "warm cache replays like a flushed one" `Quick
            warm_cache_replays_like_cold;
          Alcotest.test_case "self-modifying code after capture" `Quick
            self_modifying_code;
          Alcotest.test_case "a revalidating restore keeps the cache live"
            `Quick revalidating_restore_keeps_cache_live;
          Alcotest.test_case "no Marshal in lib or bin" `Quick
            no_marshal_in_sources;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "post-boot snapshot holds only what boot wrote"
            `Quick post_boot_snapshot_is_sparse;
          Alcotest.test_case "sanitizer state restores" `Quick
            runtime_state_restores;
        ] );
    ]
