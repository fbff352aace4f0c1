(* Architectural-state snapshots and minimized diffs for the differential
   harness.  A snapshot captures exactly the state the paper's
   probe-transparency argument is about: everything the guest can observe
   -- per-hart registers/pc/retired counts, machine totals, RAM contents
   (as a digest), console output and the stop record.  Host-side engine
   state (block cache, chain links, stats) is deliberately excluded: the
   engines are allowed to differ there. *)

open Embsan_emu

type hart = {
  h_id : int;
  h_pc : int;
  h_regs : int array;
  h_insns : int;
  h_status : string;
}

type t = {
  harts : hart array;
  total_insns : int;
  cost : int;
  ram_digest : string;
  console : string;
  stop : string option; (* rendered stop; [None] while still running *)
}

let status_name : Cpu.status -> string = function
  | Parked -> "parked"
  | Running -> "running"
  | Halted -> "halted"

let stop_string s = Fmt.str "%a" Machine.pp_stop s

let capture ?stop (m : Machine.t) =
  let hart (c : Cpu.t) =
    {
      h_id = c.id;
      h_pc = c.pc;
      h_regs = Array.copy c.regs;
      h_insns = c.insns;
      h_status = status_name c.status;
    }
  in
  {
    harts = Array.map hart m.harts;
    total_insns = m.total_insns;
    cost = m.cost;
    ram_digest = Digest.bytes m.ram.Ram.mem.Pages.bytes;
    console = Machine.console_output m;
    stop = Option.map stop_string stop;
  }

let opt_stop = function None -> "<running>" | Some s -> s

(* Field-by-field minimized diff: one line per differing observable, most
   significant first, registers named.  Empty list = architecturally
   identical. *)
let diff a b =
  let ds = ref [] in
  let add fmt = Fmt.kstr (fun s -> ds := s :: !ds) fmt in
  if a.stop <> b.stop then add "stop: %s vs %s" (opt_stop a.stop) (opt_stop b.stop);
  if a.total_insns <> b.total_insns then
    add "total_insns: %d vs %d" a.total_insns b.total_insns;
  if a.cost <> b.cost then add "cost: %d vs %d" a.cost b.cost;
  if Array.length a.harts <> Array.length b.harts then
    add "hart count: %d vs %d" (Array.length a.harts) (Array.length b.harts)
  else
    Array.iteri
      (fun i (ha : hart) ->
        let hb = b.harts.(i) in
        if ha.h_pc <> hb.h_pc then
          add "hart%d pc: 0x%08x vs 0x%08x" i ha.h_pc hb.h_pc;
        if ha.h_status <> hb.h_status then
          add "hart%d status: %s vs %s" i ha.h_status hb.h_status;
        if ha.h_insns <> hb.h_insns then
          add "hart%d insns: %d vs %d" i ha.h_insns hb.h_insns;
        Array.iteri
          (fun r va ->
            if va <> hb.h_regs.(r) then
              add "hart%d %s: 0x%08x vs 0x%08x" i
                (Embsan_isa.Reg.name (Embsan_isa.Reg.of_int r))
                va hb.h_regs.(r))
          ha.h_regs)
      a.harts;
  if a.ram_digest <> b.ram_digest then add "ram: contents differ (digest)";
  if a.console <> b.console then
    add "console: %S vs %S" a.console b.console;
  List.rev !ds

let equal a b = diff a b = []

(* On a RAM-digest mismatch the diff says only that the contents differ;
   this walks the two live machines and names the first differing words.
   Word-granular is enough to localize a bug to one store. *)
let ram_delta_entries = 8

let ram_delta (ma : Machine.t) (mb : Machine.t) =
  let base = Machine.ram_base ma and size = Machine.ram_size ma in
  let out = ref [] and n = ref 0 in
  let addr = ref base in
  while !n < ram_delta_entries && !addr + 4 <= base + size do
    let va = Machine.read_mem ma ~addr:!addr ~width:4
    and vb = Machine.read_mem mb ~addr:!addr ~width:4 in
    if va <> vb then begin
      out := Fmt.str "ram[0x%08x]: 0x%08x vs 0x%08x" !addr va vb :: !out;
      incr n
    end;
    addr := !addr + 4
  done;
  List.rev !out
