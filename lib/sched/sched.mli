(** Fuzzer-controlled multi-hart interleaving scheduler: seeded
    fuzzer-chosen preemption points behind the public [Machine.set_sched]
    hook, so the schedule becomes part of the fuzzer's input.  Every
    decision is a pure function of the draw stream and engine-invariant
    architectural progress, so a (policy, seed) pair replays the same
    interleaving on both engines and across processes. *)

type policy =
  | Slices  (** random runnable hart for a budgeted 16..512-insn slice *)
  | Priorities
      (** PCT-style: highest-priority runnable hart, random priority
          redraws at seeded change points *)

type t

val create : Embsan_emu.Machine.t -> t

(** Arm the scheduler on its machine with a fresh draw stream ([draw n]
    must be uniform in [0, n)), resetting all decision state so equal
    streams replay equal schedules.  When [policy] is omitted it is drawn
    from the stream (1-in-4 priorities). *)
val arm : ?policy:policy -> t -> draw:(int -> int) -> unit

(** Restore the machine's built-in round-robin rotation. *)
val disarm : t -> unit

val armed : t -> bool
val policy : t -> policy

(** [("slices", n); ("switches", n)]. *)
val stats : t -> (string * int) list
