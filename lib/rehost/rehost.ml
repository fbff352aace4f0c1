(* Model-free MMIO rehosting with fuzzer-scheduled interrupt injection
   (Ember-IO / FuzzBox direction).

   MMIO side: unmapped-bus reads covered by the window are served from
   the [mmio] draw stream behind a (pc, addr) memoization table — the
   first read at a site draws a fresh 32-bit response, later reads at
   the same site replay it (masked to the access width), which is what
   keeps status-polling loops deterministic and reproducers replayable.
   Writes to the window are accepted and counted; like Ember-IO we do
   not model write-back into later reads.

   IRQ side: an injection plan of absolute [total_insns] retirement
   points is drawn at arm time.  A scheduler wrapper clamps every turn
   deadline to the next point, so both engines end the turn at the first
   block boundary at or past it; at that boundary the picked hart's
   register file and pc are saved host-side and the pc is vectored to
   the guest's registered interrupt stub.  The stub's end-of-interrupt
   trap restores the saved context and resumes at the interrupted pc via
   [Fault.Retry_at] (the eoi trap sits mid-block; raising aborts the
   remaining ops with the trap instruction correctly retired on both
   engines).  Every decision is a pure function of [total_insns] and the
   plan, both engine-invariant — the rehost-transparency oracle pins
   Fast ≡ Baseline with the controller armed. *)

open Embsan_emu

type saved = { sv_hart : int; sv_regs : int array; sv_pc : int }

type t = {
  machine : Machine.t;
  mutable memo : (int * int, int) Hashtbl.t; (* (pc, addr) -> 32-bit response *)
  mutable covers : int -> bool;
  mutable draw : (unit -> int) option; (* armed mmio stream; None = off *)
  mutable writes : int; (* MMIO writes accepted (not modeled back) *)
  mutable plan : int list; (* pending absolute injection points *)
  mutable in_irq : bool;
  mutable saved : saved option; (* interrupted context, host-side *)
  mutable inner : Machine.scheduler option; (* captured at arm *)
  mutable wrapper : Machine.scheduler option; (* installed, for ==-guards *)
}

let default_covers addr = addr >= 0xE000_0000 && addr < 0xF000_0000

let mask_of = function
  | 1 -> 0xFF
  | 2 -> 0xFFFF
  | _ -> 0xFFFF_FFFF

let rh_read t ~pc ~addr ~size =
  let key = (pc, addr) in
  let v =
    match Hashtbl.find_opt t.memo key with
    | Some v -> v
    | None ->
        let v =
          match t.draw with
          | Some draw -> draw () land 0xFFFF_FFFF
          | None -> 0 (* unreachable: covers is inactive when disarmed *)
        in
        Hashtbl.add t.memo key v;
        v
  in
  v land mask_of size

let rh_write t ~pc:_ ~addr:_ ~size:_ ~value:_ = t.writes <- t.writes + 1

(* --- checkpoint ------------------------------------------------------------ *)

(* The checkpoint covers the controller's data state (memo table, write
   count, pending plan, in-flight interrupt context) but not the draw
   closures: a restore mid-exec keeps the exec's streams, and the
   per-exec re-arm resets them from the corpus seed anyway.  The memo
   table is copied in both directions; the saved context's registers
   are never written after [inject] made them, so they are shared. *)
let checkpoint t () =
  let memo = Hashtbl.copy t.memo in
  let writes = t.writes and plan = t.plan and in_irq = t.in_irq
  and saved = t.saved in
  fun () ->
    t.memo <- Hashtbl.copy memo;
    t.writes <- writes;
    t.plan <- plan;
    t.in_irq <- in_irq;
    t.saved <- saved

(* --- interrupt injection --------------------------------------------------- *)

let inject t (m : Machine.t) (cpu : Cpu.t) =
  t.saved <-
    Some
      {
        sv_hart = cpu.Cpu.id;
        sv_regs = Array.copy cpu.Cpu.regs;
        sv_pc = cpu.Cpu.pc;
      };
  cpu.Cpu.pc <- m.Machine.irq_entry;
  t.in_irq <- true;
  m.Machine.stats.Engine_stats.irq_injected <-
    m.Machine.stats.Engine_stats.irq_injected + 1

(* Scheduler wrapper: delegate the pick to the scheduler captured at arm
   time (or the built-in rotation), then [a] vector the picked hart to
   the interrupt stub when the previous turn carried us to or past the
   next injection point, and [b] clamp the turn deadline to the next
   pending point so both engines first observe the crossing at the same
   block boundary. *)
let hook t (m : Machine.t) =
  match (Option.value t.inner ~default:Machine.round_robin) m with
  | None -> None
  | Some (cpu, turn_end) ->
      (match t.plan with
      | p :: rest when (not t.in_irq) && m.Machine.total_insns >= p ->
          t.plan <- rest;
          (* without a registered stub the point is just discarded *)
          if m.Machine.irq_entry >= 0 then inject t m cpu
      | _ -> ());
      let turn_end =
        match t.plan with
        | p :: _ when not t.in_irq -> min turn_end p
        | _ -> turn_end
      in
      Some (cpu, turn_end)

(* End-of-interrupt: restore the saved context and resume at the
   interrupted pc.  The trap sits mid-block and the block's remaining
   ops belong to the stub, so the resume must abort them: [Retry_at] is
   caught by the run loop, which re-enters at the restored pc with the
   trap instruction correctly counted as retired on both engines. *)
let eoi t _m (cpu : Cpu.t) =
  match t.saved with
  | Some sv when t.in_irq && sv.sv_hart = cpu.Cpu.id ->
      Array.blit sv.sv_regs 0 cpu.Cpu.regs 0 (Array.length sv.sv_regs);
      t.in_irq <- false;
      t.saved <- None;
      raise (Fault.Retry_at sv.sv_pc)
  | _ -> () (* spurious eoi (no controller-injected interrupt): inert *)

(* --- lifecycle ------------------------------------------------------------- *)

let create machine =
  let t =
    {
      machine;
      memo = Hashtbl.create 64;
      covers = (fun _ -> false);
      draw = None;
      writes = 0;
      plan = [];
      in_irq = false;
      saved = None;
      inner = None;
      wrapper = None;
    }
  in
  Machine.set_rehost machine
    (Some
       {
         Machine.rh_read = (fun ~pc ~addr ~size -> rh_read t ~pc ~addr ~size);
         rh_write =
           (fun ~pc ~addr ~size ~value -> rh_write t ~pc ~addr ~size ~value);
         rh_covers = (fun addr -> t.draw <> None && t.covers addr);
         rh_checkpoint = checkpoint t;
       });
  Machine.set_trap_handler machine Hypercall.irq_eoi (fun m cpu ->
      eoi t m cpu);
  t

(* Injection points: 2..8 interrupts at geometrically drawn gaps of
   16..~2K retired instructions (the Sched slice shape).  Syscalls retire
   roughly a thousand instructions each, so a plan's expected span covers
   a few syscalls — dense enough to land inside short windows, spread
   enough to reach late program phases. *)
let draw_plan t irq_draw =
  let count = 2 + irq_draw 7 in
  let point = ref t.machine.Machine.total_insns in
  List.init count (fun _ ->
      point := !point + (16 lsl irq_draw 8) + irq_draw 64;
      !point)

(* Remove the scheduler wrapper, restoring the scheduler captured at arm
   time.  Guarded by physical equality: if someone re-armed the
   machine's scheduler after us, their choice stands. *)
let unwrap t =
  (match (t.wrapper, t.machine.Machine.sched) with
  | Some w, Some cur when w == cur -> Machine.set_sched t.machine t.inner
  | _ -> ());
  t.wrapper <- None;
  t.inner <- None

let arm ?(covers = default_covers) ?irq t ~mmio =
  unwrap t;
  Hashtbl.reset t.memo;
  t.covers <- covers;
  t.draw <- Some mmio;
  t.writes <- 0;
  t.in_irq <- false;
  t.saved <- None;
  t.plan <- [];
  match irq with
  | None -> ()
  | Some irq_draw ->
      t.plan <- draw_plan t irq_draw;
      t.inner <- t.machine.Machine.sched;
      let w = hook t in
      t.wrapper <- Some w;
      Machine.set_sched t.machine (Some w)

let disarm t =
  unwrap t;
  t.draw <- None;
  t.covers <- (fun _ -> false);
  t.plan <- [];
  t.in_irq <- false;
  t.saved <- None

let armed t = t.draw <> None
let pending_irqs t = List.length t.plan
let in_irq t = t.in_irq
let memo_size t = Hashtbl.length t.memo
