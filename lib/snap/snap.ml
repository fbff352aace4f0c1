(* Machine checkpoint/restore service (DESIGN.md "Snapshot service").

   A snapshot captures everything a fresh boot would establish: guest RAM
   (a {!Pages.image}), per-hart architectural state and machine counters,
   and the restore closures of every component's checkpoint: each
   device's ({!Device.t}), the rehost hook's and, optionally, the
   host-side sanitizer runtime's (shadow and ftrace planes,
   KASAN/KCSAN/kmemleak tables, report sink).  Each closure reverts the
   component it was captured from, and nothing else.  Capture and
   restore cost what was written: RAM and every sanitizer plane is a
   {!Pages} store, which starts synced to all-zero contents (loading the
   firmware re-syncs RAM), so a capture copies only the pages written
   since the last sync and shares the rest with the synced image.
   Restoring the image RAM is synced to (the latest capture or restore)
   reverts only the pages written since, the sanitizer planes follow the
   same rule, and the translation cache is revalidated instead of
   flushed.  Restoring an older snapshot copies every page and flushes.

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
  ram_image : Pages.image; (* RAM at capture, sharing unwritten pages *)
  harts : hart_state array;
  total_insns : int;
  cost : int;
  external_cost : int;
  next_hart : int;
  entry : int;
  irq_entry : int;
  host : (unit -> unit) list;
      (* restores of the devices, the rehost hook and the runtime *)
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
    accumulated afterwards is exactly "pages to revert". *)
let capture ?runtime (machine : Machine.t) =
  let host =
    List.map (fun (d : Device.t) -> d.checkpoint ())
      (Array.to_list machine.devices)
    @ List.map
        (fun (rh : Machine.rehost) -> rh.rh_checkpoint ())
        (Option.to_list machine.rehost)
    @ List.map Embsan_core.Runtime.checkpoint (Option.to_list runtime)
  in
  {
    machine;
    ram_image = Pages.capture machine.ram.Ram.mem;
    harts = Array.map save_hart machine.harts;
    total_insns = machine.total_insns;
    cost = machine.cost;
    external_cost = machine.external_cost;
    next_hart = machine.next_hart;
    entry = machine.entry;
    irq_entry = machine.irq_entry;
    host;
    restored = false;
  }

(** Revert the machine (and captured runtime) to snapshot [t].  RAM is
    reverted page-wise in O(pages written since) when it is synced to [t]'s
    image, and copied whole otherwise.  Returns the number of pages
    reverted.  The first restore and every whole-RAM one flush the
    translation cache; later ones revalidate it. *)
let restore t =
  let m = t.machine in
  let mem = m.Machine.ram.Ram.mem in
  let full = not (Pages.is_synced mem t.ram_image) in
  let pages = Pages.revert mem ~from:t.ram_image in
  Array.iteri (fun i h -> restore_hart m.Machine.harts.(i) h) t.harts;
  m.Machine.total_insns <- t.total_insns;
  m.Machine.cost <- t.cost;
  m.Machine.external_cost <- t.external_cost;
  m.Machine.next_hart <- t.next_hart;
  m.Machine.entry <- t.entry;
  m.Machine.irq_entry <- t.irq_entry;
  List.iter (fun restore -> restore ()) t.host;
  if full || not t.restored then Machine.flush_tcg m
  else Machine.revalidate_tcg m;
  t.restored <- true;
  pages
