(** Full-system machine: RAM, MMIO bus, harts, hypercall table, and a
    TCG-like execution engine that translates basic blocks into closure
    arrays with {e patchable instrumentation sites}.

    Every op that can be instrumented (mem/call/ret/compare) compiles in
    a site that consults the shared site table ({!Probe.t} subscriber
    arrays, [Cmplog.enabled]) at run time, so toggling instrumentation is
    an O(1) mutation observed by already-translated code -- no
    retranslation, no flush.  Every store marks its RAM page(s) dirty
    ({!Pages}) with one unconditional byte write.  Load/store/AMO, call and trap ops cache the closure their
    subscribers or trap handler specialized to the instruction's static
    facts, and rebuild it only when the site generation
    ({!Probe.t.gen}) moved; a site specialized to "nothing to do" makes
    no call.  An armed load/store/AMO site is "fire, then fast": it runs
    its closure with the retired-insn counter exact for the instruction,
    then runs the unarmed site's allocation-free access (see
    {!Probe.mem_site} for the contract).

    The fast engine translates each instruction into one closure, chains
    translated blocks (generation-tagged successor links), specializes
    allocation-free RAM load/store templates at translation time, and
    batches retired-insn/cost accounting per block.
    A fast-engine hart turn ends only where the chain budget, the deadline
    and guest control flow put it, never where the translation cache
    does; see DESIGN.md "Execution engine" and "Fuzzing-first engine" for
    the invariants probes may rely on. *)

type stop =
  | Halted of int
  | Fault of Fault.access * string
  | Unhandled_trap of { pc : int; num : int }
  | Decode_fault of { pc : int; reason : string }
  | Budget_exhausted
  | Deadlock

val pp_stop : Format.formatter -> stop -> unit

type block

(** [Fast] is the chained, allocation-free, batch-accounted engine;
    [Baseline] is the pre-overhaul per-instruction interpreter kept as the
    semantics reference and bench baseline.  Both retire identical
    architectural state, and both consult the probe site table at run
    time. *)
type engine = Fast | Baseline

(** Tables keyed by guest pc, with an int hash (no polymorphic hash or
    compare per lookup): the translation cache, the sanitizer runtime's
    allocator targets and symbol memo. *)
module Pc_table : Hashtbl.S with type key = int

(** Model-free MMIO rehosting hook (implemented by [lib/rehost]; a record
    of closures so the emulator stays free of fuzzer dependencies).  When
    installed, unmapped-bus accesses from guest code (hart >= 0) whose
    address satisfies [rh_covers] are served by the hook instead of
    faulting: reads come from a fuzz-input stream behind a (pc, addr)
    memoization table (counted in [stats.rehost_reads]), writes are
    recorded.  Debug accessors ([read_mem]/[write_mem], hart = -1) never
    consult the hook.  [rh_checkpoint ()] captures the hook's state (memo
    table, pending interrupt plan) for [Snap] and returns the closure that
    restores it, any number of times. *)
type rehost = {
  rh_read : pc:int -> addr:int -> size:int -> int;
  rh_write : pc:int -> addr:int -> size:int -> value:int -> unit;
  rh_covers : int -> bool;
  rh_checkpoint : unit -> unit -> unit;
}

type t = {
  arch : Embsan_isa.Arch.t;
  ram : Ram.t;
  devices : Device.t array;  (** sorted by base, non-overlapping *)
  uart : Devices.uart;
  mailbox : Devices.mailbox;
  harts : Cpu.t array;
  probes : Probe.t;
  cmplog : Cmplog.t;  (** compare-operand coverage sink (see {!Cmplog}) *)
  block_cache : block Pc_table.t;
  trap_handlers : (int, pc:int -> handler) Hashtbl.t;
      (** trap number -> handler specializer ({!set_trap_site}); change it
          only through the setters, which bump the site generation *)
  stats : Engine_stats.t;
  mutable engine : engine;
  mutable tcg_gen : int;
      (** translation-cache generation, bumped only by a flush
          ({!flush_tcg}, {!set_engine}, {!load_image}, or
          {!revalidate_tcg} when it flushes); invalidates chain links *)
  mutable suspects : (int * string) list;
      (** (base, source bytes) of the blocks translated from a page
          written since the last snapshot capture or restore;
          {!revalidate_tcg} checks them *)
  mutable total_insns : int;
  mutable cost : int;  (** modeled guest cycles ({!Cost_model} weights) *)
  mutable external_cost : int;  (** host-side sanitizer cost units *)
  mutable next_hart : int;
  mutable entry : int;
  mutable sched : scheduler option;
      (** external hart scheduler; [None] = built-in round-robin *)
  mutable rehost : rehost option;
      (** model-free MMIO rehosting hook; [None] = unmapped accesses
          fault *)
  mutable irq_entry : int;
      (** guest interrupt stub entry pc announced via
          {!Hypercall.irq_register}; -1 = none registered *)
}

and handler = t -> Cpu.t -> unit

(** External hart scheduler: pick the next hart to run and the absolute
    [total_insns] deadline of its turn (clamped to the enclosing slice
    deadline), or [None] when no hart is runnable — the run loop then
    applies its usual stall-advance/deadlock handling.  Both engines stop
    a turn at the first block boundary at or past the turn deadline, and
    block boundaries depend only on guest code, so a given scheduler
    produces the same interleaving on [Fast] and [Baseline] (pinned by
    the sched-transparency oracle). *)
and scheduler = t -> (Cpu.t * int) option

exception Trap_unhandled of int * int

val ram_base : t -> int
val ram_size : t -> int

(** A machine with zeroed RAM ({!Ram.create}: pages cost memory only once
    written), synced to the all-zero image. *)
val create :
  ?harts:int ->
  ?ram_base:int ->
  ?ram_size:int ->
  ?seed:int ->
  arch:Embsan_isa.Arch.t ->
  unit ->
  t

(** Explicitly flush the translation cache and invalidate all chained
    successor links (self-modifying code; a snapshot's first restore and
    every restore that copies all of RAM).  Instrumentation toggles never
    flush: probe subscribe/unsubscribe and cmplog patch live sites.
    Counted in [stats.flushes_invalidate]. *)
val flush_tcg : t -> unit

(** Keep the translation cache across a snapshot restore that reverted
    RAM through the dirty-page path.  Flushes (as {!flush_tcg}) only if
    some [suspects] block's source bytes differ from RAM now; otherwise
    it only clears the suspects: every block, chain link and the
    generation stay as they are, so the next exec finds its blocks
    through the table and its links as before the restore, and executes
    exactly as on a flushed cache.  Sound only if every snapshot capture
    or restore since the last flush left RAM as it is now.
    [Snap.restore] enforces this: a restore RAM is not synced to copies
    every page and flushes instead, as does a snapshot's first
    restore. *)
val revalidate_tcg : t -> unit

(** Switch execution engines; flushes the translation cache when the mode
    actually changes (blocks of the two engines are not interchangeable). *)
val set_engine : t -> engine -> unit

(** Toggle compare-operand recording (see {!Cmplog}); O(1), flush-free
    patch of the branch/compare sites. *)
val set_cmplog : t -> bool -> unit

(** Install the handler of trap [num] as a specializer: each translated
    [trap num] binds [spec ~pc] once, with its own pc, and binds again
    only after a later change to the trap table or the probe subscribers
    (the site generation, {!Probe.invalidate}).  The contract of
    {!Probe} specializers applies: [spec ~pc] may depend only on [pc] and
    on state fixed at install time. *)
val set_trap_site : t -> int -> (pc:int -> handler) -> unit

(** [set_trap_handler t num h] is [set_trap_site t num (fun ~pc:_ -> h)]. *)
val set_trap_handler : t -> int -> handler -> unit

(** Arm (or, with [None], disarm) the external hart scheduler. *)
val set_sched : t -> scheduler option -> unit

(** The built-in rotation as a scheduler: the first runnable hart from
    [next_hart] on, for the rest of the slice.  A wrapper that delegates
    to it picks exactly as the machine does with no scheduler armed. *)
val round_robin : scheduler

(** Install (or, with [None], remove) the model-free rehosting hook.  The
    hook is consulted only on the unmapped-MMIO slow paths, which the
    translated templates already reach through run-time calls, so the
    toggle is one O(1) field write observed by already-translated code —
    no retranslation, no flush (same zero-flush discipline as the probe
    and cmplog toggles). *)
val set_rehost : t -> rehost option -> unit

(** Is this hart able to execute right now (running and not stalled)? *)
val runnable : t -> Cpu.t -> bool

(** Add host-side sanitizer cost units (see {!Cost_model}). *)
val add_external_cost : t -> int -> unit

(** Modeled total cost so far: translated guest cycles + host-side work. *)
val total_cost : t -> int

(** Load the firmware and point the entry at it.  The loaded RAM becomes
    the synced image ({!Ram.load_image}), so blocks translated from the
    firmware's pages during boot are not revalidation suspects and a
    post-boot {!Embsan_snap} capture holds privately only the pages the
    loader and the boot wrote. *)
val load_image : t -> Embsan_isa.Image.t -> unit
val start_hart : t -> int -> pc:int -> sp:int -> unit

(** Boot hart 0 at the image entry with the stack at the top of RAM. *)
val boot : t -> unit

(** Debug/runtime accessors (no probes fired). *)

val read_mem : t -> addr:int -> width:int -> int
val write_mem : t -> addr:int -> width:int -> value:int -> unit
val read_string : t -> addr:int -> len:int -> string
val console_output : t -> string

(** Run until a definitive stop or the instruction budget is exhausted. *)
val run : t -> max_insns:int -> stop

(** Run until the mailbox signals the ready-to-run doorbell; [None] when
    the doorbell fired, [Some stop] when the machine stopped first. *)
val run_until_ready : t -> max_insns:int -> stop option

(** Run until the current mailbox request completes and the queue drains. *)
val run_until_mailbox_idle : t -> max_insns:int -> stop option
