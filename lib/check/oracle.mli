(** Metamorphic oracles over the dual execution engines: each runs one
    generated program on a pair of machines that must stay architecturally
    indistinguishable, compared at configurable sync points, reporting a
    minimized state diff on first divergence. *)

type divergence = {
  d_oracle : string;
  d_arch : Embsan_isa.Arch.t;
  d_seed : int;  (** generator seed — regenerates the exact program *)
  d_sync : int;  (** index of the first diverging sync point *)
  d_diff : string list;  (** minimized field-by-field state diff *)
  d_listing : string;  (** disassembly of the offending program *)
}

val pp_divergence : Format.formatter -> divergence -> unit

type cfg = {
  sync : int;  (** retired instructions between state comparisons *)
  max_insns : int;  (** total instruction budget per run *)
}

val default_cfg : cfg

(** Build the standard oracle machine for a generated program (shared by
    {!module:Harness} and the directed tests). *)
val machine_of : ?harts:int -> Progen.t -> Embsan_emu.Machine.t

(** Attach inert subscribers to all four probe kinds. *)
val no_op_probes : Embsan_emu.Machine.t -> unit

(** Each oracle returns the first divergence (if any) and the reference
    machine's final stop. *)

val fast_vs_baseline :
  cfg:cfg -> Progen.t -> divergence option * Embsan_emu.Machine.stop

val probe_transparency :
  cfg:cfg -> Progen.t -> divergence option * Embsan_emu.Machine.stop

val flush_anytime :
  cfg:cfg -> Progen.t -> divergence option * Embsan_emu.Machine.stop

(** Alternately subscribe and clear probes between sync points: site-table
    patches must be visible to already-translated code immediately and
    leak nothing into guest state. *)
val subscription_churn :
  cfg:cfg -> Progen.t -> divergence option * Embsan_emu.Machine.stop

(** Seeded random toggling of every run-time instrumentation knob (probe
    subscriptions, cmplog) between sync points.  Also pins
    the retranslation-free property: a non-zero [flushes_invalidate]
    count after the run is reported as a divergence (at sync point -1)
    even when guest state never split. *)
val toggle_storm :
  cfg:cfg -> Progen.t -> divergence option * Embsan_emu.Machine.stop

(** A two-hart machine driven by a fuzzer-controlled scheduler
    ({!Embsan_sched.Sched}) armed with identical draw streams, [Fast] vs
    [Baseline]: any fuzzer-chosen schedule must replay the same
    interleaving on both engines.  Pins the engine-invariance contract
    that makes schedule seeds meaningful corpus entries. *)
val sched_transparency :
  cfg:cfg -> Progen.t -> divergence option * Embsan_emu.Machine.stop

(** A single-hart machine with the model-free rehosting layer
    ({!Embsan_rehost.Rehost}) armed on both engines with identical draw
    streams: memoized MMIO responses and fuzzer-scheduled interrupt
    injections are pure functions of (pc, addr) sites and [total_insns],
    both engine-invariant, so [Fast] and [Baseline] must stay in
    lockstep.  Pins the contract that makes rehost seeds meaningful
    corpus entries. *)
val rehost_transparency :
  cfg:cfg -> Progen.t -> divergence option * Embsan_emu.Machine.stop

(** Between sync points the variant machine is checkpointed, run for a
    throwaway chunk and reverted with [Snap.restore]; the revert must be
    architecturally invisible.  Runs all four engine/probe configurations
    (Fast/Baseline x probed/unprobed) per program. *)
val restore_transparency :
  cfg:cfg -> Progen.t -> divergence option * Embsan_emu.Machine.stop

(** All oracles, with their report names. *)
val all :
  (string * (cfg:cfg -> Progen.t -> divergence option * Embsan_emu.Machine.stop))
  list
