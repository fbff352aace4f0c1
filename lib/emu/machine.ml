(* Full-system machine: RAM, MMIO bus, harts, hypercall table, and a
   TCG-like execution engine that translates basic blocks into closure
   arrays with *patchable instrumentation sites*.

   Engine hot-path design (see DESIGN.md "Execution engine" and
   "Fuzzing-first engine"):

   - patchable probe sites: every translated op that can be instrumented
     (mem/call/ret/compare, plus dirty-page tracking) compiles in a site
     that consults the shared site table ({!Probe.t} subscriber arrays,
     [Ram.track_dirty], [Cmplog.enabled]) at run time.  Toggling any of
     them is an O(1) mutation observed by already-translated code on its
     next dispatch -- no retranslation, no flush (Icicle's
     "instrumentation without recompilation");
   - specialized sites: each load/store/AMO, call and trap op caches the
     closure its subscribers (or the trap table) specialized to what the
     instruction fixes -- pc, width, direction, atomicity, direct-call
     target, trap number -- tagged with the site generation
     ({!Probe.t.gen}) and rebuilt only when that moved.  A site
     specialized to "nothing to do" makes no call, a mem or call site
     with no subscriber at all checks only the array length, and a trap
     costs no table lookup.  An armed load/store site is "fire, then
     fast": it computes the address, runs its closure (labelled
     arguments, no event record) with the retired-insn counter rewound to
     the instruction, then runs the same width-specialized access the
     unarmed site runs -- so probing adds one call per access and no
     allocation;
   - block chaining: each translated block caches up to two successor
     links (generation-tagged), so straight-line code and loops transfer
     control without touching the block hashtable;
   - allocation-free RAM fast path: load/store templates are specialized
     at translation time per width and bounds-check straight into
     [Ram.bytes]; the {!Fault.access} record is only constructed on the
     MMIO/fault slow path;
   - batched accounting: retired-instruction and cycle-cost counters are
     charged once per block entry from translate-time totals, with a
     prefix-sum correction on exceptional exits, instead of two mutable
     increments per instruction;
   - the [Baseline] engine mode keeps the original per-instruction,
     hashtable-every-block interpreter for semantics-equivalence tests and
     as the measured before/after baseline in BENCH_emu.json. *)

open Embsan_isa

type stop =
  | Halted of int
  | Fault of Fault.access * string
  | Unhandled_trap of { pc : int; num : int }
  | Decode_fault of { pc : int; reason : string }
  | Budget_exhausted
  | Deadlock

let pp_stop fmt = function
  | Halted code -> Fmt.pf fmt "halted(%d)" code
  | Fault (a, reason) -> Fmt.pf fmt "fault(%s: %a)" reason Fault.pp_access a
  | Unhandled_trap { pc; num } ->
      Fmt.pf fmt "unhandled-trap(%d @ %s)" num (Word32_hex.hex pc)
  | Decode_fault { pc; reason } ->
      Fmt.pf fmt "decode-fault(%s @ %s)" reason (Word32_hex.hex pc)
  | Budget_exhausted -> Fmt.string fmt "budget-exhausted"
  | Deadlock -> Fmt.string fmt "deadlock"

(* A translated block.  [b_gen] tags the translation-cache generation the
   block (and anything it links to) was built under; a mismatch
   invalidates the block and every chain link pointing at it.  Probe
   state is NOT baked in -- ops carry patchable sites -- so there is no
   probe epoch.  [b_insns]/[b_cost] are the translate-time totals charged
   on entry; [b_cost_pfx.(i)] is the cost of ops 0..i inclusive, used to
   correct the pre-charge when op [i] raises (op [i] is instruction [i],
   so the retired-insn side of the correction needs no table).

   A block kept stale by {!revalidate_tcg} is revived on its next lookup
   rather than retranslated: its generation catches up, which also
   revives every chain link pointing at it. *)
type block = {
  b_base : int; (* guest pc this block was translated from *)
  mutable b_gen : int; (* caught up by [lookup_block] when revived *)
  b_ops : (Cpu.t -> unit) array;
  b_insns : int;
  b_cost : int;
  b_cost_pfx : int array;
  mutable l0_pc : int;
  mutable l0 : block option;
  mutable l1_pc : int;
  mutable l1 : block option;
}

type engine = Fast | Baseline

(* Model-free MMIO rehosting hook (implemented by lib/rehost; the record
   of closures keeps the emulator free of fuzzer dependencies).  When
   installed, unmapped-bus accesses from guest code (hart >= 0) whose
   address satisfies [rh_covers] are served by the hook instead of
   faulting: reads come from a fuzz-input stream behind a (pc, addr)
   memoization table, writes are recorded.  The host-side debug accessors
   ([read_mem]/[write_mem], hart = -1) never consult the hook so they
   cannot pollute the memo table.  [rh_save]/[rh_restore] round-trip the
   hook's state (memo table, pending interrupt plan) through {!Snap}. *)
type rehost = {
  rh_read : pc:int -> addr:int -> size:int -> int;
  rh_write : pc:int -> addr:int -> size:int -> value:int -> unit;
  rh_covers : int -> bool;
  rh_save : unit -> string;
  rh_restore : string -> unit;
}

type t = {
  arch : Arch.t;
  ram : Ram.t;
  mutable devices : Device.t array; (* sorted by base, non-overlapping *)
  uart : Devices.uart;
  mailbox : Devices.mailbox;
  harts : Cpu.t array;
  probes : Probe.t;
  cmplog : Cmplog.t;
  block_cache : (int, block) Hashtbl.t;
  trap_handlers : (int, pc:int -> handler) Hashtbl.t;
      (* trap number -> handler specializer, bound per trap site; change
         only through set_trap_site/set_trap_handler/remove_trap_handler,
         which bump the site generation *)
  stats : Engine_stats.t;
  mutable engine : engine;
  mutable tcg_gen : int;
      (* bumped by flush_tcg and revalidate_tcg; invalidates chain links *)
  mutable suspects : (int * string) list;
      (* (base, source bytes) of blocks translated, while dirty tracking
         was on, from a page written since the last snapshot capture or
         restore: the blocks revalidate_tcg must check against RAM *)
  mutable total_insns : int;
  mutable cost : int; (* modeled guest cycles, Cost_model weights *)
  mutable external_cost : int; (* host-side sanitizer cost units *)
  mutable next_hart : int;
  mutable entry : int;
  mutable sched : scheduler option;
  mutable rehost : rehost option;
  mutable irq_entry : int;
      (* guest interrupt stub entry pc (Hypercall.irq_register); -1 = none *)
}

and handler = t -> Cpu.t -> unit

(* External hart scheduler: pick the next hart to run and the absolute
   [total_insns] deadline of its turn, or [None] when no hart is runnable
   (the run loop then applies its usual stall/deadlock handling).  [None]
   in the field selects the built-in round-robin rotation. *)
and scheduler = t -> (Cpu.t * int) option

exception Trap_unhandled of int * int (* pc, num *)

let ram_base t = Ram.base t.ram
let ram_size t = Ram.size t.ram

let sort_devices ds =
  let a = Array.copy ds in
  Array.sort (fun (a : Device.t) (b : Device.t) -> compare a.base b.base) a;
  a

let create ?(harts = 2) ?(ram_base = 0x0001_0000) ?(ram_size = 4 * 1024 * 1024)
    ?(seed = 1) ~arch () =
  let ram = Ram.create ~base:ram_base ~size:ram_size in
  let uart_state, uart_dev = Devices.uart () in
  let mailbox_state, mailbox_dev = Devices.mailbox () in
  let rec m =
    lazy
      {
        arch;
        ram;
        devices =
          sort_devices
            [|
              uart_dev;
              Devices.power ();
              mailbox_dev;
              Devices.timer ~now:(fun () -> (Lazy.force m).total_insns);
              Devices.rng ~seed;
            |];
        uart = uart_state;
        mailbox = mailbox_state;
        harts = Array.init harts Cpu.create;
        probes = Probe.create ();
        cmplog = Cmplog.create ();
        block_cache = Hashtbl.create 1024;
        trap_handlers = Hashtbl.create 16;
        stats = Engine_stats.create ();
        engine = Fast;
        tcg_gen = 0;
        suspects = [];
        total_insns = 0;
        cost = 0;
        external_cost = 0;
        next_hart = 0;
        entry = 0;
        sched = None;
        rehost = None;
        irq_entry = -1;
      }
  in
  Lazy.force m

let add_device t dev =
  t.devices <- sort_devices (Array.append t.devices [| dev |])

let flush_raw t =
  Hashtbl.reset t.block_cache;
  t.suspects <- [];
  (* chained links inside still-referenced blocks survive the hashtable
     reset; bumping the generation invalidates them *)
  t.tcg_gen <- t.tcg_gen + 1

(* Explicit invalidation (self-modifying code, engine switch, a first or
   full snapshot restore, a changed suspect).  Instrumentation toggles do
   NOT come through here any more: probe subscribe/unsubscribe, dirty
   tracking and cmplog all patch live sites, which is what keeps
   [flushes_invalidate] at ~0 under a probe-toggle storm (the
   toggle-storm oracle pins this). *)
let flush_tcg t =
  flush_raw t;
  t.stats.flushes_invalidate <- t.stats.flushes_invalidate + 1

(* Called after a snapshot restore has reverted RAM.  Every cached block
   was translated either from a page not written since the last capture
   or restore -- whose bytes the revert left as they were -- or from a
   written page, in which case it is a suspect whose source bytes were
   recorded.  So the cache is still exact unless some suspect's bytes
   differ from RAM now, which is the only case that flushes.  Otherwise
   the generation bump makes every block stale, and [lookup_block]
   revives each one in place: a warm cache replays exactly like a flushed
   one, without the retranslation. *)
let revalidate_tcg t =
  let changed (base, src) =
    Ram.read_string t.ram ~addr:base ~len:(String.length src) <> src
  in
  if List.exists changed t.suspects then flush_tcg t
  else begin
    t.suspects <- [];
    t.tcg_gen <- t.tcg_gen + 1
  end

let set_engine t engine =
  if t.engine <> engine then begin
    t.engine <- engine;
    flush_tcg t
  end

(* Dirty-page tracking is a patchable site in the translated store
   templates: stores consult [Ram.track_dirty] at run time, so toggling
   is one boolean write -- no flush, and a no-op toggle is free. *)
let set_dirty_tracking t on = Ram.set_track_dirty t.ram on

(* Compare-operand recording is a patchable site in branch/compare
   templates; same O(1), flush-free toggle. *)
let set_cmplog t on = t.cmplog.Cmplog.enabled <- on

(* The rehost hook is consulted only on the unmapped-MMIO slow paths
   (after the RAM bounds check and device dispatch both miss), which the
   translated templates already reach through run-time calls -- so
   arming/disarming is one field write observed by already-translated
   code: O(1), no flush (the zero-flush discipline the toggle-storm
   oracle pins for the other knobs). *)
let set_rehost t rh = t.rehost <- rh

(* Trap handlers are bound per trap site, like probe subscribers: a
   translated [trap] caches [spec ~pc] and binds again once the site
   generation moved, so every change to the table bumps it. *)
let set_trap_site t num spec =
  Hashtbl.replace t.trap_handlers num spec;
  Probe.invalidate t.probes

let set_trap_handler t num handler = set_trap_site t num (fun ~pc:_ -> handler)

let remove_trap_handler t num =
  Hashtbl.remove t.trap_handlers num;
  Probe.invalidate t.probes

(** Add host-side sanitizer cost units (see {!Cost_model}). *)
let add_external_cost t units = t.external_cost <- t.external_cost + units

(** Modeled total cost of the run so far: translated guest cycles plus
    host-side sanitizer work. *)
let total_cost t = t.cost + t.external_cost

let load_image t (image : Image.t) =
  if image.arch <> t.arch then invalid_arg "Machine.load_image: arch mismatch";
  Ram.load_image t.ram image;
  t.entry <- image.entry;
  (* loading replaces guest code: an unavoidable flush, accounted apart
     from invalidation flushes so toggle-storm measurements start at 0 *)
  flush_raw t;
  t.stats.flushes_load <- t.stats.flushes_load + 1

let start_hart t id ~pc ~sp = Cpu.reset t.harts.(id) ~pc ~sp

(** Boot hart 0 at the image entry with the stack at the top of RAM. *)
let boot t =
  start_hart t 0 ~pc:t.entry ~sp:(Ram.limit t.ram - 16)

(* --- Bus ------------------------------------------------------------------ *)

(* Devices are kept sorted by base and do not overlap, so MMIO dispatch is
   a binary search instead of the old linear list walk. *)
let find_device t addr =
  let ds = t.devices in
  let lo = ref 0 and hi = ref (Array.length ds - 1) in
  let found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let d = ds.(mid) in
    if addr < d.Device.base then hi := mid - 1
    else if addr >= d.Device.base + d.Device.size then lo := mid + 1
    else begin
      found := Some d;
      lo := !hi + 1
    end
  done;
  !found

let bus_read t (acc : Fault.access) =
  if Ram.contains t.ram acc.addr ~size:acc.size then Ram.read t.ram acc.addr acc.size
  else
    match find_device t acc.addr with
    | Some d -> d.read ~offset:(acc.addr - d.base) ~width:acc.size
    | None -> (
        match t.rehost with
        | Some rh when acc.hart >= 0 && rh.rh_covers acc.addr ->
            t.stats.rehost_reads <- t.stats.rehost_reads + 1;
            rh.rh_read ~pc:acc.pc ~addr:acc.addr ~size:acc.size
        | _ ->
            Ram.check t.ram acc;
            0)

let bus_write t (acc : Fault.access) value =
  if Ram.contains t.ram acc.addr ~size:acc.size then
    Ram.write t.ram acc.addr acc.size value
  else
    match find_device t acc.addr with
    | Some d -> d.write ~offset:(acc.addr - d.base) ~width:acc.size ~value
    | None -> (
        match t.rehost with
        | Some rh when acc.hart >= 0 && rh.rh_covers acc.addr ->
            rh.rh_write ~pc:acc.pc ~addr:acc.addr ~size:acc.size ~value
        | _ -> Ram.check t.ram acc)

(* The fast engine charges a whole block's retired-insn total on entry, so
   while the block's ops run [total_insns] is over-charged by the ops not
   yet executed.  That is invisible to pure guest code, but devices can
   observe the counter (the timer reads it) and probe callbacks key stall
   windows off it, so a mid-block access must see exactly the count the
   per-instruction-ticking baseline engine would show.  [over] is the op's
   translate-time distance from the block end; the counter is rewound
   around the callback and restored even when it raises (power writes
   raise [Halted], probes raise [Retry_at]), which keeps the
   [exec_ops] prefix-sum rollback arithmetic intact. *)
let rewound t ~over f =
  if over = 0 then f ()
  else begin
    t.total_insns <- t.total_insns - over;
    match f () with
    | v ->
        t.total_insns <- t.total_insns + over;
        v
    | exception e ->
        t.total_insns <- t.total_insns + over;
        raise e
  end

(* MMIO/fault slow paths for the translated fast-path templates: the
   {!Fault.access} record is only allocated here, after the RAM bounds
   check has already failed.  [over] rewinds the block pre-charge around
   the device callback (see {!rewound}); the fault path needs no rewind
   because fault records carry no counters. *)

let slow_read t ~hart ~pc ~addr ~size ~over =
  match find_device t addr with
  | Some d ->
      rewound t ~over (fun () ->
          d.Device.read ~offset:(addr - d.base) ~width:size)
  | None -> (
      match t.rehost with
      | Some rh when hart >= 0 && rh.rh_covers addr ->
          t.stats.rehost_reads <- t.stats.rehost_reads + 1;
          rewound t ~over (fun () -> rh.rh_read ~pc ~addr ~size)
      | _ ->
          Ram.check t.ram { hart; pc; addr; size; is_write = false };
          0)

let slow_write t ~hart ~pc ~addr ~size ~over value =
  match find_device t addr with
  | Some d ->
      rewound t ~over (fun () ->
          d.Device.write ~offset:(addr - d.base) ~width:size ~value)
  | None -> (
      match t.rehost with
      | Some rh when hart >= 0 && rh.rh_covers addr ->
          rewound t ~over (fun () -> rh.rh_write ~pc ~addr ~size ~value)
      | _ -> Ram.check t.ram { hart; pc; addr; size; is_write = true })

(* The armed mem site's call: the counter is rewound by [over] (see
   {!rewound}) only around the site's specialized closure, inline rather
   than through a closure, and restored on return and on a raise (KCSAN
   stalls with [Retry_at]).  The access itself runs afterwards in the op's
   fast closure, whose device, rehost and fault slow paths rewind by the
   same [over]. *)
let fire_mem_rewound t ~over (site : Probe.mem_site) ~hart ~addr ~value =
  t.total_insns <- t.total_insns - over;
  match site ~hart ~addr ~value with
  | () -> t.total_insns <- t.total_insns + over
  | exception e ->
      t.total_insns <- t.total_insns + over;
      raise e

(* A specialized site cached in a translated op: [s_fn] is what [bind ()]
   returned under site generation [s_gen] ({!Probe.t.gen}).  [bound]
   binds again once the generation moved -- a subscriber or trap handler
   changed -- so the cache never needs a flush. *)
type 'a site = { mutable s_gen : int; mutable s_fn : 'a; bind : unit -> 'a }

let site (p : Probe.t) bind = { s_gen = p.Probe.gen; s_fn = bind (); bind }

let[@inline] bound (p : Probe.t) s =
  let g = p.Probe.gen in
  if s.s_gen <> g then begin
    s.s_fn <- s.bind ();
    s.s_gen <- g
  end;
  s.s_fn

(* The handler of trap [num] bound to the trap site at [pc]. *)
let bind_trap t ~pc num : handler =
  match Hashtbl.find_opt t.trap_handlers num with
  | Some spec -> spec ~pc
  | None -> fun _ _ -> raise (Trap_unhandled (pc, num))

(* Debug accessors used by the sanitizer runtime and tests. *)
let read_mem t ~addr ~width =
  bus_read t { hart = -1; pc = 0; addr; size = width; is_write = false }

let write_mem t ~addr ~width ~value =
  bus_write t { hart = -1; pc = 0; addr; size = width; is_write = true } value

let read_string t ~addr ~len = Ram.read_string t.ram ~addr ~len

let console_output t = Devices.uart_output t.uart

(* --- TCG-like translator ------------------------------------------------- *)

let max_block_insns = 32

let alu_eval (op : Insn.alu_op) a b =
  match op with
  | Add -> Word32.add a b
  | Sub -> Word32.sub a b
  | Mul -> Word32.mul a b
  | Divu -> Word32.divu a b
  | Remu -> Word32.remu a b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> Word32.shl a b
  | Shru -> Word32.shru a b
  | Shrs -> Word32.shrs a b
  | Slt -> if Word32.lt_s a b then 1 else 0
  | Sltu -> if Word32.lt_u a b then 1 else 0
  | Seq -> if Word32.wrap a = Word32.wrap b then 1 else 0
  | Sne -> if Word32.wrap a <> Word32.wrap b then 1 else 0

let cond_eval (c : Insn.cond) a b =
  match c with
  | Eq -> Word32.wrap a = Word32.wrap b
  | Ne -> Word32.wrap a <> Word32.wrap b
  | Lt -> Word32.lt_s a b
  | Ltu -> Word32.lt_u a b
  | Ge -> not (Word32.lt_s a b)
  | Geu -> not (Word32.lt_u a b)

let load_result width signed raw =
  match (width : Insn.width) with
  | W8 -> if signed then Word32.sext raw 8 else Word32.zext raw 8
  | W16 -> if signed then Word32.sext raw 16 else Word32.zext raw 16
  | W32 -> Word32.wrap raw

let fetch_insn t pc =
  if not (Ram.contains t.ram pc ~size:Insn.size) then
    raise
      (Fault.Memory_fault
         ( { hart = -1; pc; addr = pc; size = Insn.size; is_write = false },
           "instruction fetch outside RAM" ));
  Codec.decode_with t.arch ~addr:pc (fun off -> Ram.read8 t.ram off) pc

let collect_block t base =
  let rec collect pc acc n =
    let insn = fetch_insn t pc in
    let acc = (pc, insn) :: acc in
    if Insn.ends_block insn || n + 1 >= max_block_insns then
      (List.rev acc, pc + Insn.size)
    else collect (pc + Insn.size) acc (n + 1)
  in
  let ((_, end_pc) as block) = collect base [] 0 in
  (* a block spans at most two pages; one written since the last capture
     or restore makes it a suspect for [revalidate_tcg] *)
  let ram = t.ram in
  let page addr = (addr - Ram.base ram) lsr Ram.page_shift in
  let written addr =
    Ram.page_is_dirty ram ~channel:Ram.snap_channel (page addr)
  in
  if Ram.track_dirty ram && (written base || written (end_pc - 1)) then
    t.suspects <-
      (base, Ram.read_string ram ~addr:base ~len:(end_pc - base)) :: t.suspects;
  block

(* Translate one basic block starting at [base] for the fast engine.
   Instrumentation points compile to *patchable sites*: each op that can
   be instrumented captures the machine's shared probe/cmplog/dirty state
   records and checks its armed condition at run time -- for mem and call
   ops, that a subscriber exists and then the generation of its cached
   specialized closure (see {!site}); for trap ops, the generation.
   Toggling a probe therefore patches every translated block at once,
   with zero flushes.  Memory ops bounds-check straight into RAM
   bytes with no allocation, exactly like an uninstrumented TCG template,
   armed or not: an armed site only adds its closure's call before the
   access (see {!fire_mem_rewound}).  Ops do not touch the retired-insn/
   cost counters; those are charged per-block by the run loop. *)
let translate_fast t base =
  let p = t.probes in
  let cl = t.cmplog in
  let ram = t.ram in
  (* Register indices, arithmetic ops and RAM bounds are all resolved at
     translation time; the generated closures touch [cpu.regs] and the RAM
     bytes directly.  Register values are invariantly 32-bit-wrapped (only
     these stores write them, and they mask), and r0 is never written, so
     unsafe reads of precomputed indices are exact [Cpu.get] semantics. *)
  let bytes = ram.Ram.bytes in
  let rbase = ram.Ram.base in
  let rlim = rbase + Bytes.length bytes in
  (* Dirty-page tracking is a patchable site too: stores read
     [ram.track_dirty] at run time.  The tracked store path adds one
     byte write per store (two when the access straddles a page
     boundary) and no allocation. *)
  let dirtyb = ram.Ram.dirty in
  let pshift = Ram.page_shift in
  let mark off n =
    Bytes.unsafe_set dirtyb (off lsr pshift) '\xFF';
    let last = (off + n - 1) lsr pshift in
    if last <> off lsr pshift then Bytes.unsafe_set dirtyb last '\xFF'
  in
  let ri = Reg.to_int in
  let sgn v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v in
  let insns, end_pc = collect_block t base in
  let n_insns = List.length insns in
  (* [idx] is the op's position in the block; memory ops turn it into the
     [over] rewind distance so device reads and probe callbacks observe
     exact per-instruction counters despite the batched block pre-charge
     (see {!rewound}).  The armed mem site of each memory op fires the
     subscribers, then runs the op's [fast] closure: a subscriber must not
     write hart registers, since [fast] re-reads them. *)
  let op_of idx (pc, insn) : Cpu.t -> unit =
    match (insn : Insn.t) with
    | Nop | Fence -> fun _cpu -> ()
    | Halt -> fun cpu -> raise (Fault.Halted (Cpu.get cpu Reg.a0))
    | Li (rd, imm) ->
        let d = ri rd and v = Word32.wrap imm in
        if d = 0 then fun _cpu -> ()
        else fun cpu -> Array.unsafe_set cpu.Cpu.regs d v
    | Alu (op, rd, rs1, rs2) ->
        let d = ri rd and a = ri rs1 and b = ri rs2 in
        if d = 0 then fun _cpu -> () (* ALU ops are pure; r0 sink discards *)
        else
          let bin f cpu =
            let r = cpu.Cpu.regs in
            Array.unsafe_set r d
              (f (Array.unsafe_get r a) (Array.unsafe_get r b)
              land 0xFFFF_FFFF)
          in
          (* reg-reg compares carry a cmplog site: when recording is
             enabled the operand pair feeds compare-operand coverage *)
          let cbin f cpu =
            let r = cpu.Cpu.regs in
            let x = Array.unsafe_get r a and y = Array.unsafe_get r b in
            if cl.Cmplog.enabled then Cmplog.record cl ~pc ~lhs:x ~rhs:y;
            Array.unsafe_set r d (f x y land 0xFFFF_FFFF)
          in
          (match (op : Insn.alu_op) with
          | Add -> bin (fun x y -> x + y)
          | Sub -> bin (fun x y -> x - y)
          | Mul -> bin (fun x y -> x * y)
          | Divu -> bin (fun x y -> if y = 0 then 0xFFFF_FFFF else x / y)
          | Remu -> bin (fun x y -> if y = 0 then x else x mod y)
          | And -> bin (fun x y -> x land y)
          | Or -> bin (fun x y -> x lor y)
          | Xor -> bin (fun x y -> x lxor y)
          | Shl -> bin (fun x y -> x lsl (y land 31))
          | Shru -> bin (fun x y -> x lsr (y land 31))
          | Shrs -> bin (fun x y -> sgn x asr (y land 31))
          | Slt -> cbin (fun x y -> if sgn x < sgn y then 1 else 0)
          | Sltu -> cbin (fun x y -> if x < y then 1 else 0)
          | Seq -> cbin (fun x y -> if x = y then 1 else 0)
          | Sne -> cbin (fun x y -> if x <> y then 1 else 0))
    | Alui (op, rd, rs1, imm) ->
        let d = ri rd and a = ri rs1 in
        if d = 0 then fun _cpu -> ()
        else
          let unary f cpu =
            let r = cpu.Cpu.regs in
            Array.unsafe_set r d (f (Array.unsafe_get r a) land 0xFFFF_FFFF)
          in
          let w = Word32.wrap imm in
          (* immediate-compare cmplog site: the immediate is the value the
             guest is comparing against (a magic constant, when large) *)
          let cunary f cpu =
            let r = cpu.Cpu.regs in
            let x = Array.unsafe_get r a in
            if cl.Cmplog.enabled then Cmplog.record cl ~pc ~lhs:x ~rhs:w;
            Array.unsafe_set r d (f x land 0xFFFF_FFFF)
          in
          (match (op : Insn.alu_op) with
          | Add -> unary (fun x -> x + imm)
          | Sub -> unary (fun x -> x - imm)
          | Mul -> unary (fun x -> x * imm)
          | Divu -> unary (fun x -> if w = 0 then 0xFFFF_FFFF else x / w)
          | Remu -> unary (fun x -> if w = 0 then x else x mod w)
          | And -> unary (fun x -> x land imm)
          | Or -> unary (fun x -> x lor imm)
          | Xor ->
              (* [x == CONST] compiles to [xor rd, rs, CONST; sltu rd, rd,
                 1] (no Seq immediate form), so a large xor immediate IS
                 an equality guard's magic constant -- record it.  Small
                 immediates are overwhelmingly bit-twiddling; skip them to
                 bound the noise. *)
              if w > 0xFF then cunary (fun x -> x lxor imm)
              else unary (fun x -> x lxor imm)
          | Shl -> unary (fun x -> x lsl (imm land 31))
          | Shru -> unary (fun x -> x lsr (imm land 31))
          | Shrs -> unary (fun x -> sgn x asr (imm land 31))
          | Slt ->
              let si = sgn w in
              unary (fun x -> if sgn x < si then 1 else 0)
          | Sltu -> unary (fun x -> if x < w then 1 else 0)
          | Seq -> cunary (fun x -> if x = w then 1 else 0)
          | Sne -> cunary (fun x -> if x <> w then 1 else 0))
    | Load (w, signed, rd, rs1, imm) ->
        let size = Insn.width_bytes w in
        let over = n_insns - 1 - idx in
        (* allocation-free fast path, width-specialized at translate time *)
        let d = ri rd and a = ri rs1 in
        let set (r : int array) v = if d <> 0 then Array.unsafe_set r d v in
        let fast : Cpu.t -> unit =
          match (w : Insn.width) with
          | W32 ->
              fun cpu ->
                let r = cpu.Cpu.regs in
                let addr = (Array.unsafe_get r a + imm) land 0xFFFF_FFFF in
                if addr >= rbase && addr + 4 <= rlim then
                  set r
                    (Int32.to_int (Bytes.get_int32_le bytes (addr - rbase))
                    land 0xFFFF_FFFF)
                else
                  set r
                    (Word32.wrap
                       (slow_read t ~hart:cpu.id ~pc ~addr ~size:4 ~over))
          | W16 ->
              fun cpu ->
                let r = cpu.Cpu.regs in
                let addr = (Array.unsafe_get r a + imm) land 0xFFFF_FFFF in
                let raw =
                  if addr >= rbase && addr + 2 <= rlim then
                    Bytes.get_uint16_le bytes (addr - rbase)
                  else slow_read t ~hart:cpu.id ~pc ~addr ~size:2 ~over
                in
                set r (if signed then Word32.sext raw 16 else raw land 0xFFFF)
          | W8 ->
              fun cpu ->
                let r = cpu.Cpu.regs in
                let addr = (Array.unsafe_get r a + imm) land 0xFFFF_FFFF in
                let raw =
                  if addr >= rbase && addr + 1 <= rlim then
                    Char.code (Bytes.unsafe_get bytes (addr - rbase))
                  else slow_read t ~hart:cpu.id ~pc ~addr ~size:1 ~over
                in
                set r (if signed then Word32.sext raw 8 else raw land 0xFF)
        in
        (* the patchable site: with no subscriber, one length check (an
           empty array specializes to no site); otherwise a generation
           check, then the specialized closure unless the subscribers have
           nothing to do here *)
        let s =
          site p (fun () ->
              Probe.mem_site p ~pc ~size ~is_write:false ~is_atomic:false)
        in
        fun cpu ->
          if Array.length p.Probe.mem <> 0 then begin
            let f = bound p s in
            if f != Probe.no_site then
              fire_mem_rewound t ~over f ~hart:cpu.id
                ~addr:
                  ((Array.unsafe_get cpu.Cpu.regs a + imm) land 0xFFFF_FFFF)
                ~value:0
          end;
          fast cpu
    | Store (w, rs1, rs2, imm) ->
        let size = Insn.width_bytes w in
        let over = n_insns - 1 - idx in
        (* dirty marking consults [ram.track_dirty] at run time: the
           dirty-track site of the store template *)
        let a = ri rs1 and v = ri rs2 in
        let fast : Cpu.t -> unit =
          match (w : Insn.width) with
          | W32 ->
              fun cpu ->
                let r = cpu.Cpu.regs in
                let addr = (Array.unsafe_get r a + imm) land 0xFFFF_FFFF in
                if addr >= rbase && addr + 4 <= rlim then begin
                  let off = addr - rbase in
                  Bytes.set_int32_le bytes off
                    (Int32.of_int (Array.unsafe_get r v));
                  if ram.Ram.track_dirty then mark off 4
                end
                else
                  slow_write t ~hart:cpu.id ~pc ~addr ~size:4 ~over
                    (Array.unsafe_get r v)
          | W16 ->
              fun cpu ->
                let r = cpu.Cpu.regs in
                let addr = (Array.unsafe_get r a + imm) land 0xFFFF_FFFF in
                if addr >= rbase && addr + 2 <= rlim then begin
                  let off = addr - rbase in
                  Bytes.set_uint16_le bytes off
                    (Array.unsafe_get r v land 0xFFFF);
                  if ram.Ram.track_dirty then mark off 2
                end
                else
                  slow_write t ~hart:cpu.id ~pc ~addr ~size:2 ~over
                    (Array.unsafe_get r v)
          | W8 ->
              fun cpu ->
                let r = cpu.Cpu.regs in
                let addr = (Array.unsafe_get r a + imm) land 0xFFFF_FFFF in
                if addr >= rbase && addr + 1 <= rlim then begin
                  let off = addr - rbase in
                  Bytes.unsafe_set bytes off
                    (Char.unsafe_chr (Array.unsafe_get r v land 0xFF));
                  if ram.Ram.track_dirty then
                    Bytes.unsafe_set dirtyb (off lsr pshift) '\xFF'
                end
                else
                  slow_write t ~hart:cpu.id ~pc ~addr ~size:1 ~over
                    (Array.unsafe_get r v)
        in
        let s =
          site p (fun () ->
              Probe.mem_site p ~pc ~size ~is_write:true ~is_atomic:false)
        in
        fun cpu ->
          if Array.length p.Probe.mem <> 0 then begin
            let f = bound p s in
            if f != Probe.no_site then begin
              let r = cpu.Cpu.regs in
              fire_mem_rewound t ~over f ~hart:cpu.id
                ~addr:((Array.unsafe_get r a + imm) land 0xFFFF_FFFF)
                ~value:(Array.unsafe_get r v)
            end
          end;
          fast cpu
    | Amo (op, rd, rs1, rs2) ->
        let over = n_insns - 1 - idx in
        let d = ri rd and a = ri rs1 and v = ri rs2 in
        let is_add = match op with Amo_add -> true | Amo_swap -> false in
        let fast cpu =
          let r = cpu.Cpu.regs in
          let addr = Array.unsafe_get r a in
          if addr >= rbase && addr + 4 <= rlim then begin
            let off = addr - rbase in
            let old =
              Int32.to_int (Bytes.get_int32_le bytes off) land 0xFFFF_FFFF
            in
            let next =
              if is_add then (old + Array.unsafe_get r v) land 0xFFFF_FFFF
              else Array.unsafe_get r v
            in
            Bytes.set_int32_le bytes off (Int32.of_int next);
            if ram.Ram.track_dirty then mark off 4;
            if d <> 0 then Array.unsafe_set r d old
          end
          else begin
            let old = slow_read t ~hart:cpu.id ~pc ~addr ~size:4 ~over in
            let next =
              if is_add then Word32.add old (Array.unsafe_get r v)
              else Array.unsafe_get r v
            in
            slow_write t ~hart:cpu.id ~pc ~addr ~size:4 ~over next;
            if d <> 0 then Array.unsafe_set r d (Word32.wrap old)
          end
        in
        let s =
          site p (fun () ->
              Probe.mem_site p ~pc ~size:4 ~is_write:true ~is_atomic:true)
        in
        fun cpu ->
          if Array.length p.Probe.mem <> 0 then begin
            let f = bound p s in
            if f != Probe.no_site then begin
              let r = cpu.Cpu.regs in
              fire_mem_rewound t ~over f ~hart:cpu.id
                ~addr:(Array.unsafe_get r a) ~value:(Array.unsafe_get r v)
            end
          end;
          fast cpu
    | Branch (c, rs1, rs2, imm) ->
        let a = ri rs1 and b = ri rs2 in
        let taken = Word32.add pc imm and ft = pc + Insn.size in
        (* the branch's cmplog site records the compared operand pair *)
        let br test cpu =
          let r = cpu.Cpu.regs in
          let x = Array.unsafe_get r a and y = Array.unsafe_get r b in
          if cl.Cmplog.enabled then Cmplog.record cl ~pc ~lhs:x ~rhs:y;
          cpu.Cpu.pc <- (if test x y then taken else ft)
        in
        (match (c : Insn.cond) with
        | Eq -> br (fun x y -> x = y)
        | Ne -> br (fun x y -> x <> y)
        | Lt -> br (fun x y -> sgn x < sgn y)
        | Ltu -> br (fun x y -> x < y)
        | Ge -> br (fun x y -> sgn x >= sgn y)
        | Geu -> br (fun x y -> x >= y))
    | Jal (rd, imm) ->
        let target = Word32.add pc imm in
        let link = pc + Insn.size in
        let d = ri rd in
        if Reg.equal rd Reg.ra then begin
          (* call site, specialized on its static target: the site runs
             after the architectural effects so it observes the
             post-transfer state *)
          let s =
            site p (fun () -> Probe.call_site p ~pc ~target:(Some target))
          in
          fun cpu ->
            Cpu.set cpu rd link;
            cpu.pc <- target;
            if Array.length p.Probe.calls <> 0 then begin
              let f = bound p s in
              if f != Probe.no_call_site then f ~hart:cpu.id ~target
            end
        end
        else fun cpu ->
          if d <> 0 then Array.unsafe_set cpu.Cpu.regs d link;
          cpu.Cpu.pc <- target
    | Jalr (rd, rs1, imm) ->
        let is_call = Reg.equal rd Reg.ra in
        let is_ret = Reg.equal rd Reg.zero && Reg.equal rs1 Reg.ra in
        let link = pc + Insn.size in
        if is_call then begin
          let s = site p (fun () -> Probe.call_site p ~pc ~target:None) in
          fun cpu ->
            let target = Word32.add (Cpu.get cpu rs1) imm in
            Cpu.set cpu rd link;
            cpu.pc <- target;
            if Array.length p.Probe.calls <> 0 then begin
              let f = bound p s in
              if f != Probe.no_call_site then f ~hart:cpu.id ~target
            end
        end
        else if is_ret then (fun cpu ->
          let target = Word32.add (Cpu.get cpu rs1) imm in
          Cpu.set cpu rd link;
          cpu.pc <- target;
          if Array.length p.Probe.rets > 0 then
            Probe.fire_ret p
              {
                r_hart = cpu.id;
                r_pc = pc;
                r_target = target;
                r_retval = Cpu.get cpu Reg.a0;
              })
        else
          let d = ri rd and a = ri rs1 in
          fun cpu ->
            let r = cpu.Cpu.regs in
            let target = (Array.unsafe_get r a + imm) land 0xFFFF_FFFF in
            if d <> 0 then Array.unsafe_set r d link;
            cpu.Cpu.pc <- target
    | Trap num ->
        let next_pc = pc + Insn.size in
        (* the handler bound to this site, through the one trap table *)
        let s = site p (fun () -> bind_trap t ~pc num) in
        fun cpu ->
          cpu.pc <- next_pc;
          (bound p s) t cpu
  in
  let ops = List.mapi op_of insns in
  let costs = List.map (fun (_, i) -> Cost_model.insn_cost i) insns in
  let ops, costs =
    match List.rev insns with
    | (_, last) :: _ when Insn.ends_block last -> (ops, costs)
    | _ -> (ops @ [ (fun cpu -> cpu.Cpu.pc <- end_pc) ], costs @ [ 0 ])
  in
  let cost_pfx = Array.of_list costs in
  let total = ref 0 in
  for i = 0 to Array.length cost_pfx - 1 do
    total := !total + cost_pfx.(i);
    cost_pfx.(i) <- !total
  done;
  {
    b_base = base;
    b_gen = t.tcg_gen;
    b_ops = Array.of_list ops;
    b_insns = n_insns;
    b_cost = !total;
    b_cost_pfx = cost_pfx;
    l0_pc = min_int;
    l0 = None;
    l1_pc = min_int;
    l1 = None;
  }

(* The pre-overhaul engine, kept close to verbatim: per-instruction
   accounting, record-allocating bus accesses, hashtable lookup on every
   block, no chaining.  It is the reference for the semantics-equivalence
   tests and the measured "baseline" row of BENCH_emu.json.  Probe state
   is consulted at run time here too (the site-table contract applies to
   both engines), so baseline blocks also survive probe toggles; it asks
   the specializers (and the trap table) afresh on every event instead of
   caching their answer. *)
let translate_baseline t base =
  let tick_alu cpu =
    cpu.Cpu.insns <- cpu.Cpu.insns + 1;
    t.total_insns <- t.total_insns + 1;
    t.cost <- t.cost + Cost_model.alu_insn
  in
  let tick_mem (cpu : Cpu.t) =
    cpu.Cpu.insns <- cpu.Cpu.insns + 1;
    t.total_insns <- t.total_insns + 1;
    t.cost <- t.cost + Cost_model.mem_insn
  in
  let insns, end_pc = collect_block t base in
  let op_of (pc, insn) : Cpu.t -> unit =
    match (insn : Insn.t) with
    | Nop | Fence -> tick_alu
    | Halt ->
        fun cpu ->
          tick_alu cpu;
          raise (Fault.Halted (Cpu.get cpu Reg.a0))
    | Li (rd, imm) ->
        fun cpu ->
          tick_alu cpu;
          Cpu.set cpu rd imm
    | Alu (op, rd, rs1, rs2) ->
        fun cpu ->
          tick_alu cpu;
          Cpu.set cpu rd (alu_eval op (Cpu.get cpu rs1) (Cpu.get cpu rs2))
    | Alui (op, rd, rs1, imm) ->
        fun cpu ->
          tick_alu cpu;
          Cpu.set cpu rd (alu_eval op (Cpu.get cpu rs1) imm)
    | Load (w, signed, rd, rs1, imm) ->
        let size = Insn.width_bytes w in
        fun cpu ->
          tick_mem cpu;
          let addr = Word32.add (Cpu.get cpu rs1) imm in
          if Probe.has_mem t.probes then
            Probe.fire_mem t.probes ~pc ~size ~is_write:false ~is_atomic:false
              ~hart:cpu.id ~addr ~value:0;
          let raw =
            bus_read t { hart = cpu.id; pc; addr; size; is_write = false }
          in
          Cpu.set cpu rd (load_result w signed raw)
    | Store (w, rs1, rs2, imm) ->
        let size = Insn.width_bytes w in
        fun cpu ->
          tick_mem cpu;
          let addr = Word32.add (Cpu.get cpu rs1) imm in
          let value = Cpu.get cpu rs2 in
          if Probe.has_mem t.probes then
            Probe.fire_mem t.probes ~pc ~size ~is_write:true ~is_atomic:false
              ~hart:cpu.id ~addr ~value;
          bus_write t { hart = cpu.id; pc; addr; size; is_write = true } value
    | Amo (op, rd, rs1, rs2) ->
        fun cpu ->
          tick_mem cpu;
          let addr = Cpu.get cpu rs1 in
          if Probe.has_mem t.probes then
            Probe.fire_mem t.probes ~pc ~size:4 ~is_write:true ~is_atomic:true
              ~hart:cpu.id ~addr ~value:(Cpu.get cpu rs2);
          let acc : Fault.access =
            { hart = cpu.id; pc; addr; size = 4; is_write = true }
          in
          let old = bus_read t { acc with is_write = false } in
          let next =
            match op with
            | Amo_add -> Word32.add old (Cpu.get cpu rs2)
            | Amo_swap -> Cpu.get cpu rs2
          in
          bus_write t acc next;
          Cpu.set cpu rd old
    | Branch (c, rs1, rs2, imm) ->
        fun cpu ->
          tick_alu cpu;
          cpu.pc <-
            (if cond_eval c (Cpu.get cpu rs1) (Cpu.get cpu rs2) then
               Word32.add pc imm
             else pc + Insn.size)
    | Jal (rd, imm) ->
        let target = Word32.add pc imm in
        let is_call = Reg.equal rd Reg.ra in
        fun cpu ->
          tick_alu cpu;
          Cpu.set cpu rd (pc + Insn.size);
          cpu.pc <- target;
          if is_call && Probe.has_calls t.probes then
            Probe.fire_call t.probes ~pc ~target ~direct:true ~hart:cpu.id
    | Jalr (rd, rs1, imm) ->
        let is_call = Reg.equal rd Reg.ra in
        let is_ret = Reg.equal rd Reg.zero && Reg.equal rs1 Reg.ra in
        fun cpu ->
          tick_alu cpu;
          let target = Word32.add (Cpu.get cpu rs1) imm in
          Cpu.set cpu rd (pc + Insn.size);
          cpu.pc <- target;
          if is_call && Probe.has_calls t.probes then
            Probe.fire_call t.probes ~pc ~target ~direct:false ~hart:cpu.id
          else if is_ret && Probe.has_rets t.probes then
            Probe.fire_ret t.probes
              {
                r_hart = cpu.id;
                r_pc = pc;
                r_target = target;
                r_retval = Cpu.get cpu Reg.a0;
              }
    | Trap num ->
        fun cpu ->
          tick_alu cpu;
          cpu.pc <- pc + Insn.size;
          (bind_trap t ~pc num) t cpu
  in
  let ops = List.map op_of insns in
  let ops =
    match List.rev insns with
    | (_, last) :: _ when Insn.ends_block last -> ops
    | _ -> ops @ [ (fun cpu -> cpu.Cpu.pc <- end_pc) ]
  in
  (* baseline ops self-tick, so block totals are zero: the batched
     pre-charge in the fast run loop must not double-count them *)
  {
    b_base = base;
    b_gen = t.tcg_gen;
    b_ops = Array.of_list ops;
    b_insns = 0;
    b_cost = 0;
    b_cost_pfx = [||];
    l0_pc = min_int;
    l0 = None;
    l1_pc = min_int;
    l1 = None;
  }

let translate t base =
  t.stats.translations <- t.stats.translations + 1;
  match t.engine with
  | Fast -> translate_fast t base
  | Baseline -> translate_baseline t base

let lookup_block t pc =
  match Hashtbl.find_opt t.block_cache pc with
  | Some b when b.b_gen = t.tcg_gen ->
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      b
  | Some b ->
      (* kept by [revalidate_tcg] (a flush empties the table): revive it
         in O(1).  Its links stay; each one is live again once its target
         is revived too, and a link only skips a lookup that would find
         the same block. *)
      t.stats.cache_misses <- t.stats.cache_misses + 1;
      b.b_gen <- t.tcg_gen;
      b
  | None ->
      t.stats.cache_misses <- t.stats.cache_misses + 1;
      let b = translate t pc in
      Hashtbl.replace t.block_cache pc b;
      b

(* --- Run loop -------------------------------------------------------------- *)

(* Execute one translated block with batched accounting: charge the
   translate-time totals up front, run the ops, and on an exceptional exit
   roll the counters back to exactly what per-instruction accounting would
   have charged (ops 0..i inclusive when op [i] raised -- an instruction
   that raises *after* starting, e.g. a faulting store or a probe-stalled
   retry, still counts as retired-then-rolled-back, matching the baseline
   engine's tick-before-access order).  Op [i] is instruction [i],
   except the synthetic fall-through pc-setter, which retires nothing. *)
let exec_ops t (b : block) (cpu : Cpu.t) =
  t.total_insns <- t.total_insns + b.b_insns;
  t.cost <- t.cost + b.b_cost;
  cpu.insns <- cpu.insns + b.b_insns;
  let ops = b.b_ops in
  let n = Array.length ops in
  let i = ref 0 in
  try
    while !i < n do
      (Array.unsafe_get ops !i) cpu;
      incr i
    done
  with e ->
    let ran_insns = min (!i + 1) b.b_insns in
    let ran_cost = b.b_cost_pfx.(!i) in
    t.total_insns <- t.total_insns - b.b_insns + ran_insns;
    t.cost <- t.cost - b.b_cost + ran_cost;
    cpu.insns <- cpu.insns - b.b_insns + ran_insns;
    raise e

(* Blocks executed per hart turn.  The chain budget is a constant so the
   schedule depends only on guest control flow and retired-insn counts --
   never on probe subscriptions or translation-cache state -- which is
   what makes probed and unprobed executions architecturally identical
   (the differential-semantics test pins this). *)
let chain_limit = 16

let link_lookup (b : block) pc gen =
  match b.l0 with
  | Some nb when b.l0_pc = pc && nb.b_gen = gen -> Some nb
  | _ -> (
      match b.l1 with
      | Some nb when b.l1_pc = pc && nb.b_gen = gen -> Some nb
      | _ -> None)

let link_set (b : block) pc nb =
  match b.l0 with
  | None ->
      b.l0_pc <- pc;
      b.l0 <- Some nb
  | Some _ when b.l0_pc = pc ->
      b.l0 <- Some nb
  | Some _ ->
      b.l1_pc <- pc;
      b.l1 <- Some nb

let rec chain_exec t (cpu : Cpu.t) b budget ~deadline =
  exec_ops t b cpu;
  let budget = budget - 1 in
  if
    budget > 0
    && t.total_insns < deadline
    && cpu.status = Running
    && cpu.stall_until <= t.total_insns
  then begin
    let pc = cpu.pc in
    if Probe.has_blocks t.probes then
      Probe.fire_block t.probes { b_hart = cpu.id; b_pc = pc };
    let nb =
      match link_lookup b pc t.tcg_gen with
      | Some nb ->
          t.stats.chained <- t.stats.chained + 1;
          nb
      | None ->
          let nb = lookup_block t pc in
          link_set b pc nb;
          nb
    in
    chain_exec t cpu nb budget ~deadline
  end

let exec_turn t (cpu : Cpu.t) ~deadline =
  if Probe.has_blocks t.probes then
    Probe.fire_block t.probes { b_hart = cpu.id; b_pc = cpu.pc };
  let b = lookup_block t cpu.pc in
  chain_exec t cpu b chain_limit ~deadline

(* Baseline engine: one hashtable lookup and one block per turn. *)
let exec_block_baseline t (cpu : Cpu.t) =
  let pc = cpu.pc in
  if Probe.has_blocks t.probes then
    Probe.fire_block t.probes { b_hart = cpu.id; b_pc = pc };
  let block = lookup_block t pc in
  let ops = block.b_ops in
  for i = 0 to Array.length ops - 1 do
    ops.(i) cpu
  done

let step t cpu ~deadline =
  match t.engine with
  | Fast -> exec_turn t cpu ~deadline
  | Baseline -> exec_block_baseline t cpu

let runnable t (cpu : Cpu.t) =
  cpu.status = Running && cpu.stall_until <= t.total_insns

let set_sched t sched = t.sched <- sched

(** Run until a stop condition.  [until] is checked between hart turns and
    makes the machine pause (reported as [Budget_exhausted]?  no: returns
    [None]).  Returns [Some stop] for a definitive machine stop, [None]
    when [until] fired or all work is done without halting. *)
let run_slice t ~max_insns ~(until : unit -> bool) =
  let deadline = t.total_insns + max_insns in
  let n = Array.length t.harts in
  let rec loop idle_rounds =
    if until () then None
    else if t.total_insns >= deadline then Some Budget_exhausted
    else begin
      (* pick next runnable hart: external scheduler when armed (with its
         own per-turn deadline, clamped to the slice), else round-robin *)
      let picked =
        match t.sched with
        | Some sched -> (
            match sched t with
            | Some (cpu, turn_end) -> Some (cpu, min turn_end deadline)
            | None -> None)
        | None ->
            let rec pick k =
              if k >= n then None
              else
                let cpu = t.harts.((t.next_hart + k) mod n) in
                if runnable t cpu then Some (cpu, deadline) else pick (k + 1)
            in
            pick 0
      in
      match picked with
      | Some (cpu, turn_deadline) -> (
          t.next_hart <- (cpu.id + 1) mod n;
          match step t cpu ~deadline:turn_deadline with
          | () -> loop 0
          | exception Fault.Halted code -> Some (Halted code)
          | exception Fault.Memory_fault (acc, reason) -> Some (Fault (acc, reason))
          | exception Fault.Retry_at pc ->
              cpu.pc <- pc;
              loop 0
          | exception Trap_unhandled (pc, num) -> Some (Unhandled_trap { pc; num })
          | exception Codec.Decode_error { addr; reason } ->
              Some (Decode_fault { pc = addr; reason }))
      | None ->
          (* all harts parked/halted/stalled: advance time past the nearest
             stall, or report deadlock *)
          let nearest =
            Array.fold_left
              (fun acc (cpu : Cpu.t) ->
                if cpu.status = Running && cpu.stall_until > t.total_insns then
                  min acc cpu.stall_until
                else acc)
              max_int t.harts
          in
          if nearest = max_int || idle_rounds > 2 then Some Deadlock
          else begin
            t.total_insns <- nearest;
            loop (idle_rounds + 1)
          end
    end
  in
  loop 0

let run t ~max_insns =
  match run_slice t ~max_insns ~until:(fun () -> false) with
  | Some stop -> stop
  | None -> Budget_exhausted

(** Run until the mailbox signals the ready-to-run doorbell. *)
let run_until_ready t ~max_insns =
  run_slice t ~max_insns ~until:(fun () -> Devices.mailbox_ready t.mailbox)

(** Run until the current mailbox request completes and the queue drains. *)
let run_until_mailbox_idle t ~max_insns =
  run_slice t ~max_insns ~until:(fun () -> Devices.mailbox_idle t.mailbox)
