(** Coverage-guided fuzzing campaign over one firmware image, with crash
    triage against the bug registry and reproducer confirmation.  Two
    front-ends match the paper's tooling: Syzkaller mode (guest kcov
    coverage) for Linux firmware and Tardis mode (OS-agnostic
    translated-block coverage) for the RTOS and closed-source images. *)

open Embsan_guest

type config = {
  fw : Firmware_db.firmware;
  sanitizers : Embsan_core.Embsan.sanitizers;
  max_execs : int;
  seed : int;
  stop_when_all_found : bool;
  use_cmplog : bool;
      (** compare-operand coverage ({!Embsan_emu.Cmplog}): per-exec
          compare features join the frontier signature and the operand
          dictionary feeds mutation, which is what solves magic-value
          guards.  Off by default so existing seeded trajectories stay
          pinned. *)
  use_sched : bool;
      (** schedule fuzzing ({!Embsan_sched.Sched}): each execution runs
          under a fuzzer-chosen interleaving seeded from a dedicated
          [Rng.split_stream] stream, the seed is part of the corpus
          entry and of reproducers (mutated, minimized), and the main
          mutation stream is never touched — so trajectories with
          [use_sched = false] stay pinned.  Off by default. *)
  use_rehost : bool;
      (** model-free MMIO rehosting ({!Embsan_rehost.Rehost}): reads from
          unmapped MMIO ranges are served from a per-exec seeded stream
          behind a (pc, addr) memoization table, so firmware with no
          hand-written device model still runs.  The rehost seed rides
          the corpus entry and reproducers exactly like the schedule
          seed, from a dedicated non-advancing [Rng.split_stream] stream
          — trajectories with [use_rehost = false] stay pinned.  Off by
          default. *)
  use_irq : bool;
      (** fuzzer-scheduled interrupt injection on top of [use_rehost]:
          the per-exec rehost seed also draws an injection plan (the
          ["irq"] stream) that vectors the guest's registered interrupt
          stub at chosen retirement points.  Off by default. *)
}

val default_config : Firmware_db.firmware -> config

type found = {
  f_bug : Defs.bug;
  f_exec : int;  (** executions until first detection *)
  f_prog : Prog.t;  (** reproducer (possibly with shrunk history prefix) *)
  f_sched : int option;
      (** schedule seed the reproducer needs ([None] = round-robin
          suffices; minimization tries dropping the schedule first) *)
  f_rehost : int option;
      (** rehost seed the reproducer needs ([None] = fires without the
          rehost layer; minimization tries dropping it before the
          schedule seed) *)
  f_irq : bool;
      (** the rehost replay also injects interrupts ([repro] needs
          [--irq] alongside [--rehost-seed]) *)
  f_confirmed : bool;  (** reproduced on a fresh instance *)
}

(** The knob controllers of one booted machine: an interleaving scheduler
    ({!Embsan_sched.Sched}) and an MMIO/IRQ controller
    ({!Embsan_rehost.Rehost}), each present or not. *)
type controls

(** [controls ~sched ~rehost ~irq machine] builds the controllers replays
    on [machine] need; with [irq], an armed MMIO seed also draws an
    interrupt-injection plan.  Build them before a post-boot
    [Snap.capture], so the checkpoint carries the controller state. *)
val controls :
  sched:bool -> rehost:bool -> irq:bool -> Embsan_emu.Machine.t -> controls

(** Arm one replay's knob seeds exactly as campaigns do: the schedule
    first, then the MMIO/IRQ layer (whose injection clamps compose with
    the interleaving just armed), each seed fanned out into the same
    per-knob streams.  [None] disarms; a seed for an absent controller
    is ignored.  This is how a reported [found] replays. *)
val arm : controls -> sched:int option -> rehost:int option -> unit

type result = {
  r_fw : Firmware_db.firmware;
  r_found : found list;
  r_execs : int;
  r_crashes : int;
  r_corpus : int;
  r_coverage : int;
  r_insns : int;
  r_unmatched : string list;
  r_corpus_progs : Prog.t list;
      (** the merged corpus (the overhead experiment's workload) *)
}

(** The steppable per-worker fuzzing engine behind {!run}.  One engine
    owns one booted instance (machine, runtime, knob controllers,
    post-boot snapshot) for its whole life, plus its corpus and coverage
    map — shared-nothing, so the campaign
    orchestrator ([lib/orch]) can drive one engine per domain.  {!run}
    is exactly [create]; [step] until [finished]; [result] — which is
    what makes a single-worker orchestrated campaign bit-identical to
    {!run} for the same seed. *)
module Engine : sig
  type t

  (** [create ?rng cfg] boots a fresh instance and returns an idle
      engine.  [rng] defaults to [Rng.create ~seed:cfg.seed]; the
      orchestrator passes [Rng.split]-derived per-shard streams. *)
  val create : ?rng:Rng.t -> config -> t

  (** Budget exhausted, or all registered bugs found (when
      [stop_when_all_found]). *)
  val finished : t -> bool

  (** One fuzzing iteration: generate or mutate a program, execute it,
      triage coverage/reports/crashes, recover from architectural
      crashes by restoring the post-boot snapshot. *)
  val step : t -> unit

  (** Execute a frontier program received from another worker, under the
      schedule and rehost seeds it was productive with.  Counts as one
      execution and goes through the same corpus-admission and triage
      path as a generated program. *)
  val inject : t -> ?sched:int -> ?rehost:int -> Prog.t -> unit

  (** New corpus entries (with the schedule and rehost seeds they ran
      under and the coverage signature that admitted them) since the
      last drain, oldest first. *)
  val drain_frontier :
    t -> (Prog.t * int option * int option * (int * int) list) list

  (** Newly found (confirmed/unconfirmed) bugs since the last drain,
      oldest first. *)
  val drain_found : t -> found list

  val execs : t -> int
  val crashes : t -> int
  val corpus_size : t -> int
  val coverage : t -> int
  val insns_now : t -> int
  val unmatched : t -> string list

  (** Final result; also flushes the instruction accounting. *)
  val result : t -> result
end

val run : config -> result

(** Filter the corpus to programs that neither report nor crash, iterated
    to a fixpoint (dropping a program changes allocator state for the
    survivors).  The Figure-2 replay workload. *)
val clean_corpus : Firmware_db.firmware -> Prog.t list -> Prog.t list

val pp_result : Format.formatter -> result -> unit
