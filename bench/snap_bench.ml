(* Snapshot-service bench: writes BENCH_snap.json (schema in README.md).

   Restore latency vs dirty-page count: a 4 MiB machine is checkpointed
   once; each sample touches N pages and restores, demonstrating the
   O(touched) claim: latency must scale with N, not with RAM size, and
   every restore must revert exactly the pages touched.

   Post-boot capture cost: one firmware per OS family, plus mmio-suite,
   booted as a KASAN campaign boots it and captured.  A capture holds
   privately only the pages the loader and the boot wrote, so it is
   guarded to at most 2% of RAM's pages (the exact counts are pinned in
   test_snap). *)

open Embsan_emu
module Snap = Embsan_snap.Snap
module Firmware_db = Embsan_guest.Firmware_db
module Replay = Embsan_guest.Replay
module Embsan = Embsan_core.Embsan

let min_bench_secs = 0.3
let latency_ram_size = 4 * 1024 * 1024 (* 1024 pages *)

type latency_sample = {
  l_dirty_pages : int;
  l_restores : int;
  l_mean_usecs : float;
}

let restore_latency touched =
  let m =
    Machine.create ~harts:1 ~ram_base:0x1_0000 ~ram_size:latency_ram_size
      ~arch:Embsan_isa.Arch.Arm_ev ()
  in
  let snap = Snap.capture m in
  let base = Machine.ram_base m in
  let touch () =
    for p = 0 to touched - 1 do
      Machine.write_mem m
        ~addr:(base + (p * Ram.page_size) + (p mod 64 * 4))
        ~width:4 ~value:(0xA5000000 lor p)
    done
  in
  (* measure the restore alone: dirty outside the timed window *)
  let restores = ref 0 and secs = ref 0.0 in
  while !secs < min_bench_secs do
    touch ();
    let t0 = Unix.gettimeofday () in
    let reverted = Snap.restore snap in
    secs := !secs +. (Unix.gettimeofday () -. t0);
    incr restores;
    assert (reverted = touched)
  done;
  {
    l_dirty_pages = touched;
    l_restores = !restores;
    l_mean_usecs = 1e6 *. !secs /. float_of_int !restores;
  }

let latency_json s =
  Printf.sprintf
    {|{ "dirty_pages": %d, "restores": %d, "mean_restore_usecs": %.2f }|}
    s.l_dirty_pages s.l_restores s.l_mean_usecs

let capture_firmware =
  [
    "OpenWRT-bcm63xx";
    "OpenHarmony-stm32f407";
    "InfiniTime";
    "TP-Link WDR-7660";
    "mmio-suite";
  ]

let capture_reps = 5
let max_private_share = 0.02

type capture_sample = {
  c_fw : string;
  c_boot_usecs : float;  (** median over [capture_reps] boots *)
  c_capture_usecs : float;
  c_pages : int;
  c_private_pages : int;
}

let median l = List.nth (List.sort compare l) (List.length l / 2)

(* The probing session is memoized, so the first boot is left untimed:
   the rows time the instance boot and the capture alone. *)
let capture_cost name =
  let fw = Option.get (Firmware_db.find name) in
  let kcov = fw.fw_fuzzer = Firmware_db.Syzkaller in
  let boot () = Replay.boot ~kcov fw (Replay.Embsan_cfg Embsan.kasan_only) in
  ignore (boot () : Replay.instance);
  let runs =
    List.init capture_reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        let inst = boot () in
        let t1 = Unix.gettimeofday () in
        let snap = Snap.capture ?runtime:inst.rt inst.machine in
        let t2 = Unix.gettimeofday () in
        (t1 -. t0, t2 -. t1, inst.machine, snap))
  in
  let _, _, m, snap = List.hd runs in
  {
    c_fw = name;
    c_boot_usecs = 1e6 *. median (List.map (fun (b, _, _, _) -> b) runs);
    c_capture_usecs = 1e6 *. median (List.map (fun (_, c, _, _) -> c) runs);
    c_pages = Pages.page_count m.Machine.ram.Ram.mem;
    c_private_pages = Pages.private_pages (Snap.ram_image snap);
  }

let within_share c =
  float_of_int c.c_private_pages <= max_private_share *. float_of_int c.c_pages

let capture_json c =
  Printf.sprintf
    {|{ "firmware": %S, "boot_usecs": %.1f, "capture_usecs": %.1f, "ram_pages": %d, "private_pages": %d }|}
    c.c_fw c.c_boot_usecs c.c_capture_usecs c.c_pages c.c_private_pages

(* --- driver ----------------------------------------------------------------- *)

let run () =
  Fmt.pr "@.Snapshot service (host wall clock)@.";
  let counts = [ 1; 4; 16; 64; 256; 1024 ] in
  let latencies = List.map restore_latency counts in
  List.iter
    (fun s ->
      Fmt.pr "  restore %4d dirty pages: %8.2f us  (%d restores)@."
        s.l_dirty_pages s.l_mean_usecs s.l_restores)
    latencies;
  let captures = List.map capture_cost capture_firmware in
  List.iter
    (fun c ->
      Fmt.pr "  %-22s boot %8.1f us  capture %6.1f us  %3d/%d pages held@."
        c.c_fw c.c_boot_usecs c.c_capture_usecs c.c_private_pages c.c_pages)
    captures;
  let guard = List.for_all within_share captures in
  let json =
    Printf.sprintf
      {|{
  "schema": "embsan-snap-bench/3",
  "restore_latency": {
    "ram_bytes": %d,
    "page_bytes": %d,
    "samples": [
    %s
    ]
  },
  "post_boot_capture": [
    %s
  ],
  "guards": {
    "captures_hold_at_most_2pct_of_pages": %b
  }
}
|}
      latency_ram_size Ram.page_size
      (String.concat ",\n    " (List.map latency_json latencies))
      (String.concat ",\n    " (List.map capture_json captures))
      guard
  in
  let oc = open_out "BENCH_snap.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "  wrote BENCH_snap.json@.";
  if not guard then begin
    Fmt.pr "  RATIO GUARD VIOLATED@.";
    exit 1
  end
