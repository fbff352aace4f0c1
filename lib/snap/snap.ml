(* Machine checkpoint/restore service (DESIGN.md "Snapshot service").

   A snapshot captures everything a fresh boot would establish: guest RAM
   (a {!Ram.image}), per-hart architectural state, device state (via the
   {!Device.t} save/restore hooks) and, optionally, the host-side
   sanitizer runtime (shadow planes, KASAN/KCSAN/kmemleak tables, report
   sink).  Capture and restore cost what was written.  RAM and the shadow
   planes start with dirty tracking on, synced to all-zero contents, and
   loading the firmware re-syncs RAM, so a capture copies only the pages
   and chunks written since the last sync and shares the rest with the
   synced state.  Restoring the image RAM is synced to (the latest
   capture or restore, with tracking on throughout) reverts only the
   pages written since, the shadow planes copy back only their dirty
   chunks under the same rule, and the translation cache is revalidated
   instead of flushed.  Any other restore -- an older snapshot, or one
   after tracking was turned off -- copies every page and flushes.

   What is deliberately NOT captured: probe subscribers and site state, trap
   handlers, device callbacks (mailbox on_ready/on_complete), the
   translation cache and engine statistics — all host-side wiring or
   caches whose contents are semantically transparent.  Translations of
   guest code that was modified and then reverted must not survive with
   stale bodies: the first restore of a snapshot, and every one that
   copies all of RAM, calls {!Machine.flush_tcg} (blocks translated before
   it have unknown provenance); every later restore calls
   {!Machine.revalidate_tcg}, which flushes only if a block translated
   from a page written since the last capture or restore no longer
   matches RAM. *)

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
  ram_image : Ram.image; (* RAM at capture, sharing unwritten pages *)
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

let ram_image t = t.ram_image

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
    given) and sync RAM to the captured image, so the write set
    accumulated afterwards is exactly "pages to revert".  Turns dirty-page
    tracking back on if it was off — an O(1), flush-free site patch (store
    sites read the flag at run time); RAM then has no synced image and
    the capture copies every page. *)
let capture ?runtime (machine : Machine.t) =
  Machine.set_dirty_tracking machine true;
  {
    machine;
    ram_image = Ram.capture machine.Machine.ram;
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

(** Revert the machine (and captured runtime) to snapshot [t].  RAM is
    reverted page-wise in O(pages written since) when it is synced to [t]'s
    image, and copied whole otherwise.  Returns the number of pages
    reverted.  The first restore and every whole-RAM one flush the
    translation cache; later ones revalidate it. *)
let restore t =
  let m = t.machine in
  let ram = m.Machine.ram in
  let full = not (Ram.is_synced ram t.ram_image) in
  let pages = Ram.revert ram ~from:t.ram_image in
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
