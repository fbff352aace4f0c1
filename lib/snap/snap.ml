(* Machine checkpoint/restore service (DESIGN.md "Snapshot service").

   A snapshot captures everything a fresh boot would establish: guest RAM
   (full copy at capture), per-hart architectural state, device state (via
   the {!Device.t} save/restore hooks) and, optionally, the host-side
   sanitizer runtime (shadow planes, KASAN/KCSAN/kmemleak tables, report
   sink).  Restore costs what was written since: capture arms {!Ram}
   dirty-page tracking on the snapshot channel, and restore reverts only
   the pages written since, the shadow planes copy back only their dirty
   chunks, and the translation cache is revalidated instead of flushed.

   Single-active-snapshot discipline: capture clears the snapshot dirty
   channel, so only the *most recent* capture of a machine can be restored
   through the dirty-page fast path.  Restoring an older snapshot falls
   back to a full-RAM revert (see [restore ~full:true]).  Restoring the
   latest snapshot repeatedly is supported and is the persistent-fuzzing
   hot path.

   What is deliberately NOT captured: probe subscribers and site state, trap
   handlers, device callbacks (mailbox on_ready/on_complete), the
   translation cache and engine statistics — all host-side wiring or
   caches whose contents are semantically transparent.  Translations of
   guest code that was modified and then reverted must not survive with
   stale bodies: the first restore of a snapshot, and every full one,
   calls {!Machine.flush_tcg} (blocks translated before it have unknown
   provenance); every later restore calls {!Machine.revalidate_tcg},
   which flushes only if a block translated from a page written since
   the last capture or restore no longer matches RAM. *)

open Embsan_emu

type hart_state = {
  h_regs : int array;
  h_pc : int;
  h_status : Cpu.status;
  h_stall_until : int;
  h_insns : int;
}

type t = {
  machine : Machine.t;
  ram_image : Bytes.t; (* full RAM contents at capture *)
  harts : hart_state array;
  devices : (string * string) array; (* device name, opaque save blob *)
  total_insns : int;
  cost : int;
  external_cost : int;
  next_hart : int;
  entry : int;
  rehost : string option; (* rehost-hook state (memo table, pending IRQs) *)
  runtime : (Embsan_core.Runtime.t * Embsan_core.Runtime.state) option;
  mutable restored : bool; (* a restore of this snapshot has flushed *)
}

let save_hart (cpu : Cpu.t) =
  {
    h_regs = Array.copy cpu.Cpu.regs;
    h_pc = cpu.Cpu.pc;
    h_status = cpu.Cpu.status;
    h_stall_until = cpu.Cpu.stall_until;
    h_insns = cpu.Cpu.insns;
  }

let restore_hart (cpu : Cpu.t) (h : hart_state) =
  Array.blit h.h_regs 0 cpu.Cpu.regs 0 (Array.length cpu.Cpu.regs);
  cpu.Cpu.pc <- h.h_pc;
  cpu.Cpu.status <- h.h_status;
  cpu.Cpu.stall_until <- h.h_stall_until;
  cpu.Cpu.insns <- h.h_insns

(** Checkpoint [machine] (and [runtime]'s host-side sanitizer state, when
    given).  Enables dirty-page tracking — an O(1), flush-free site patch
    (store sites read the flag at run time) — and clears the snapshot
    dirty channel, so the write set accumulated afterwards is exactly
    "pages to revert". *)
let capture ?runtime (machine : Machine.t) =
  Machine.set_dirty_tracking machine true;
  Ram.clear_dirty machine.Machine.ram ~channel:Ram.snap_channel;
  {
    machine;
    ram_image = Bytes.copy machine.Machine.ram.Ram.bytes;
    harts = Array.map save_hart machine.Machine.harts;
    devices =
      Array.map
        (fun (d : Device.t) -> (d.Device.name, d.Device.save ()))
        machine.Machine.devices;
    total_insns = machine.Machine.total_insns;
    cost = machine.Machine.cost;
    external_cost = machine.Machine.external_cost;
    next_hart = machine.Machine.next_hart;
    entry = machine.Machine.entry;
    rehost =
      Option.map
        (fun (rh : Machine.rehost) -> rh.Machine.rh_save ())
        machine.Machine.rehost;
    runtime = Option.map (fun rt -> (rt, Embsan_core.Runtime.save rt)) runtime;
    restored = false;
  }

(** Number of RAM pages currently dirty since the last capture (the data
    volume the next {!restore} will move). *)
let dirty_pages (machine : Machine.t) =
  Ram.dirty_count machine.Machine.ram ~channel:Ram.snap_channel

(** Revert the machine (and captured runtime) to snapshot [t].  RAM is
    reverted page-wise in O(pages written since capture); [~full:true]
    forces a whole-RAM revert instead (required when [t] is not the most
    recent capture of this machine).  Returns the number of pages
    reverted.  The first and every full restore flush the translation
    cache; later ones revalidate it. *)
let restore ?(full = false) t =
  let m = t.machine in
  let ram = m.Machine.ram in
  let full = full || not (Ram.track_dirty ram) in
  let pages =
    if full then begin
      Bytes.blit t.ram_image 0 ram.Ram.bytes 0 (Bytes.length t.ram_image);
      (* every page may have changed: mark all pages dirty for the other
         channels, then clear our own bit *)
      Ram.mark_dirty_range ram ~addr:ram.Ram.base ~size:(Bytes.length t.ram_image);
      Ram.clear_dirty ram ~channel:Ram.snap_channel;
      Ram.page_count ram
    end
    else Ram.revert_dirty ram ~channel:Ram.snap_channel ~from:t.ram_image
  in
  Array.iteri (fun i h -> restore_hart m.Machine.harts.(i) h) t.harts;
  Array.iteri
    (fun i (name, blob) ->
      let d = m.Machine.devices.(i) in
      if d.Device.name <> name then
        invalid_arg
          (Printf.sprintf "Snap.restore: device %d is %s, snapshot has %s" i
             d.Device.name name);
      d.Device.restore blob)
    t.devices;
  m.Machine.total_insns <- t.total_insns;
  m.Machine.cost <- t.cost;
  m.Machine.external_cost <- t.external_cost;
  m.Machine.next_hart <- t.next_hart;
  m.Machine.entry <- t.entry;
  (* rehost-hook state (memo table, pending interrupts) reverts with the
     machine; a hook installed only after capture keeps its live state *)
  (match (m.Machine.rehost, t.rehost) with
  | Some rh, Some blob -> rh.Machine.rh_restore blob
  | _ -> ());
  Option.iter
    (fun (rt, st) -> Embsan_core.Runtime.restore rt st)
    t.runtime;
  if full || not t.restored then Machine.flush_tcg m
  else Machine.revalidate_tcg m;
  t.restored <- true;
  pages
