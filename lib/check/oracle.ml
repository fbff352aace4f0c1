(* Metamorphic oracles over the dual execution engines.

   Every oracle runs one generated program on a pair of machines that must
   be architecturally indistinguishable, in lockstep chunks of [cfg.sync]
   retired instructions, comparing {!Snapshot}s at every sync point:

   - fast-vs-baseline: same program on [Machine.Fast] and
     [Machine.Baseline].  Single-hart only -- the engines' scheduling
     granularity (16 chained blocks vs 1 block per hart turn) differs by
     design, so multi-hart interleavings are not comparable;
   - probe-transparency: the fast engine with no-op probes on all four
     probe kinds vs no probes.  Armed sites fire their subscribers
     (rewinding the retired-insn counter around the call) before the
     access, none of which may leak into guest state (paper section 3.3's
     transparency claim);
   - flush-anytime: random [flush_tcg] between sync points must be
     invisible;
   - subscription-churn: alternately subscribing and clearing probes
     between sync points patches the shared site table while the guest is
     in flight -- cached blocks and chain links survive, but every
     already-translated site must see the new subscriber list immediately;
   - toggle-storm: seeded random toggling of every run-time
     instrumentation knob (probe subscriptions, dirty tracking, cmplog)
     between sync points, against an unperturbed
     fast machine.  Doubles as the retranslation-free pin: after the run,
     [flushes_invalidate] must be exactly 0 -- no toggle is allowed to
     flush the translation cache;
   - sched-transparency: a two-hart machine driven by an armed
     fuzzer-controlled scheduler ({!Embsan_sched.Sched}) with identical
     draw streams on [Machine.Fast] and [Machine.Baseline].  Scheduler
     decisions are a pure function of the draw stream and engine-invariant
     architectural progress, so any fuzzer-chosen schedule must replay
     the same interleaving on both engines — the property that makes
     schedule seeds meaningful corpus entries;
   - rehost-transparency: a single-hart machine with the model-free
     rehosting layer ({!Embsan_rehost.Rehost}) armed on [Machine.Fast]
     and [Machine.Baseline] with identical draw streams: memoized MMIO
     responses are a pure function of (pc, addr) sites and interrupt
     injections of [total_insns], both engine-invariant, so the engines
     must stay in lockstep with the layer armed — the property that
     makes rehost seeds meaningful corpus entries;
   - restore-transparency: between sync points [mb] is checkpointed, then
     twice run for a throwaway chunk (scribbling on RAM, registers,
     devices and counters) and reverted by [Snap.restore] — the reverts
     must be architecturally invisible.  The first restore of the
     checkpoint flushes the translation cache and the second revalidates
     it, so both paths run under all four engine/probe configurations
     (Fast/Baseline x probed/unprobed), since restore interacts with the
     translation cache and the probe site table.

   Chunked [Machine.run] is a sound sync mechanism because both engines
   stop at the first block boundary past the deadline and block
   boundaries depend only on guest code, never on engine or probe
   state. *)

open Embsan_isa
open Embsan_emu
module Rng = Embsan_fuzz.Rng

type divergence = {
  d_oracle : string;
  d_arch : Arch.t;
  d_seed : int;
  d_sync : int;
  d_diff : string list;
  d_listing : string;
}

let pp_divergence fmt d =
  Fmt.pf fmt "@[<v>divergence in oracle %S (arch %s, seed %d, sync point %d)%a@ program:@ %a@]"
    d.d_oracle (Arch.to_string d.d_arch) d.d_seed d.d_sync
    Fmt.(list ~sep:(any "") (any "@ - " ++ string))
    d.d_diff Fmt.lines d.d_listing

type cfg = { sync : int; max_insns : int }

let default_cfg = { sync = 512; max_insns = 4096 }

(* Both machines of a pair are created identically: same RAM window as the
   generator assumed, same device RNG seed, and a deterministic handler
   for the one hypercall number generated programs may use. *)
let machine_of ?(harts = 1) (p : Progen.t) =
  let m =
    Machine.create ~harts ~ram_base:p.p_ram_base ~ram_size:p.p_ram_size
      ~seed:(p.p_seed lor 1) ~arch:p.p_arch ()
  in
  Machine.load_image m p.p_image;
  Machine.boot m;
  Machine.set_trap_handler m Progen.handled_trap (fun _ cpu ->
      Cpu.set cpu Reg.a0 (Cpu.get cpu Reg.a0 lxor 0x5A5A));
  m

(* Armed subscribers that do nothing: every site runs a call. *)
let ignore_mem =
  Probe.every_mem
    (fun ~hart:_ ~pc:_ ~addr:_ ~size:_ ~is_write:_ ~is_atomic:_ ~value:_ -> ())

let ignore_call = Probe.every_call ignore

let no_op_probes (m : Machine.t) =
  Probe.on_mem m.probes ignore_mem;
  Probe.on_call m.probes ignore_call;
  Probe.on_ret m.probes (fun _ -> ());
  Probe.on_block m.probes (fun _ -> ())

(* Run [ma] (reference) and [mb] (variant) in lockstep; [between] perturbs
   [mb] between sync points (metamorphic knob).  Returns the first
   divergence, plus the reference machine's final stop for statistics. *)
let lockstep ~name ~cfg (p : Progen.t) ma mb ~between =
  let diverged sync_idx diff =
    let diff =
      (* a digest mismatch alone doesn't localize anything; name the words *)
      if List.exists (fun l -> l = "ram: contents differ (digest)") diff then
        diff @ Snapshot.ram_delta ma mb
      else diff
    in
    {
      d_oracle = name;
      d_arch = p.p_arch;
      d_seed = p.p_seed;
      d_sync = sync_idx;
      d_diff = diff;
      d_listing = Progen.listing p;
    }
  in
  let rec go sync_idx remaining =
    let chunk = min cfg.sync remaining in
    let sa = Machine.run ma ~max_insns:chunk in
    let sb = Machine.run mb ~max_insns:chunk in
    let terminal s = s <> Machine.Budget_exhausted in
    let finished = terminal sa || terminal sb || remaining - chunk <= 0 in
    let stop_of s = if terminal s || finished then Some s else None in
    let snap_a = Snapshot.capture ?stop:(stop_of sa) ma in
    let snap_b = Snapshot.capture ?stop:(stop_of sb) mb in
    match Snapshot.diff snap_a snap_b with
    | [] ->
        if finished then (None, sa)
        else begin
          between mb;
          go (sync_idx + 1) (remaining - chunk)
        end
    | diff -> (Some (diverged sync_idx diff), sa)
  in
  go 0 cfg.max_insns

let fast_vs_baseline ~cfg (p : Progen.t) =
  let ma = machine_of p in
  let mb = machine_of p in
  Machine.set_engine mb Machine.Baseline;
  lockstep ~name:"fast-vs-baseline" ~cfg p ma mb ~between:(fun _ -> ())

let probe_transparency ~cfg (p : Progen.t) =
  let ma = machine_of p in
  let mb = machine_of p in
  no_op_probes mb;
  lockstep ~name:"probe-transparency" ~cfg p ma mb ~between:(fun _ -> ())

let flush_anytime ~cfg (p : Progen.t) =
  let rng = Rng.create ~seed:(p.p_seed + 0x9E37) in
  let ma = machine_of p in
  let mb = machine_of p in
  lockstep ~name:"flush-anytime" ~cfg p ma mb ~between:(fun mb ->
      if Rng.chance rng ~percent:60 then Machine.flush_tcg mb)

let subscription_churn ~cfg (p : Progen.t) =
  let ma = machine_of p in
  let mb = machine_of p in
  let attached = ref false in
  lockstep ~name:"subscription-churn" ~cfg p ma mb ~between:(fun mb ->
      if !attached then begin
        Probe.clear mb.probes;
        attached := false
      end
      else begin
        no_op_probes mb;
        attached := true
      end)

(* Every run-time instrumentation knob, toggled at random between sync
   points, against an untouched fast machine.  Two claims at once: the
   toggles are architecturally invisible, and none of them costs a
   translation-cache flush (the retranslation-free property this engine
   is built around). *)
let toggle_storm ~cfg (p : Progen.t) =
  let rng = Rng.create ~seed:(p.p_seed + 0x7066) in
  let ma = machine_of p in
  let mb = machine_of p in
  let subs = ref [] in
  let storm mb =
    for _ = 1 to Rng.range rng 1 4 do
      match Rng.below rng 4 with
      | 0 -> Machine.set_dirty_tracking mb (Rng.chance rng ~percent:50)
      | 1 -> Machine.set_cmplog mb (Rng.chance rng ~percent:50)
      | 2 ->
          let s =
            match Rng.below rng 4 with
            | 0 -> Probe.subscribe_mem mb.Machine.probes ignore_mem
            | 1 -> Probe.subscribe_call mb.Machine.probes ignore_call
            | 2 -> Probe.subscribe_ret mb.Machine.probes (fun _ -> ())
            | _ -> Probe.subscribe_block mb.Machine.probes (fun _ -> ())
          in
          subs := s :: !subs
      | _ -> (
          match !subs with
          | [] -> ()
          | s :: rest ->
              Probe.unsubscribe s;
              subs := rest)
    done
  in
  let res, stop = lockstep ~name:"toggle-storm" ~cfg p ma mb ~between:storm in
  match res with
  | Some _ -> (res, stop)
  | None ->
      let fi = mb.Machine.stats.Engine_stats.flushes_invalidate in
      if fi = 0 then (None, stop)
      else
        ( Some
            {
              d_oracle = "toggle-storm";
              d_arch = p.p_arch;
              d_seed = p.p_seed;
              d_sync = -1;
              d_diff =
                [
                  Printf.sprintf
                    "instrumentation toggles flushed the translation cache %d \
                     times (expected 0)"
                    fi;
                ];
              d_listing = Progen.listing p;
            },
          stop )

(* Two harts running the generated program under a fuzzer-chosen schedule,
   Fast vs Baseline.  Without an external scheduler the engines'
   round-robin granularity differs by design (16 chained blocks vs 1
   block per turn) and multi-hart state is not comparable; with one
   armed, every turn boundary is a pure function of the draw stream and
   retired-instruction counts, so the interleavings must coincide
   exactly.  Each machine gets its own [Sched.t] and its own [Rng] with
   the same seed: identical streams, independent state. *)
let sched_transparency ~cfg (p : Progen.t) =
  let machine_with_sched engine =
    let m = machine_of ~harts:2 p in
    (* hart 1: same entry, stack window disjoint from hart 0's *)
    Machine.start_hart m 1 ~pc:m.Machine.entry
      ~sp:(Ram.limit m.Machine.ram - 16 - 0x8000);
    Machine.set_engine m engine;
    let ctl = Embsan_sched.Sched.create m in
    let r = Rng.create ~seed:(p.p_seed + 0x5C4ED) in
    Embsan_sched.Sched.arm ctl ~draw:(fun n -> Rng.below r n);
    m
  in
  let ma = machine_with_sched Machine.Fast in
  let mb = machine_with_sched Machine.Baseline in
  lockstep ~name:"sched-transparency" ~cfg p ma mb ~between:(fun _ -> ())

(* A single-hart machine with the model-free rehosting layer armed on
   both engines.  Every access outside the null page that hits neither
   RAM nor a modeled device is served from a seeded memo stream, and an
   injection plan (same-seeded draw streams, independent state) vectors
   the hart to the program entry at fuzzer-chosen retirement points.
   Generated programs register no interrupt stub and never signal
   end-of-interrupt, so the first injection latches [in_irq] — one
   mid-program vectoring per run is still enough to pin injection-point
   invariance on top of MMIO-response invariance. *)
let rehost_transparency ~cfg (p : Progen.t) =
  let machine_with_rehost engine =
    let m = machine_of p in
    Machine.set_engine m engine;
    (* stand-in for a guest-registered stub: vector to the program entry *)
    m.Machine.irq_entry <- m.Machine.entry;
    let ctl = Embsan_rehost.Rehost.create m in
    let mr = Rng.create ~seed:(p.p_seed + 0x4E05) in
    let ir = Rng.create ~seed:(p.p_seed + 0x14C) in
    Embsan_rehost.Rehost.arm ctl
      ~covers:(fun addr -> addr >= 0x1000) (* keep null-page faults *)
      ~irq:(fun n -> Rng.below ir n)
      ~mmio:(fun () -> Rng.next mr);
    m
  in
  let ma = machine_with_rehost Machine.Fast in
  let mb = machine_with_rehost Machine.Baseline in
  lockstep ~name:"rehost-transparency" ~cfg p ma mb ~between:(fun _ -> ())

let restore_transparency ~cfg (p : Progen.t) =
  let rng = Rng.create ~seed:(p.p_seed + 0x51AB) in
  let run_variant (engine, probed) =
    let ma = machine_of p in
    let mb = machine_of p in
    Machine.set_engine ma engine;
    Machine.set_engine mb engine;
    if probed then begin
      no_op_probes ma;
      no_op_probes mb
    end;
    lockstep ~name:"restore-transparency" ~cfg p ma mb ~between:(fun mb ->
        (* checkpoint, then twice run a throwaway chunk so guest RAM,
           registers, device state and counters all move, and revert: the
           first restore flushes the translation cache, the second keeps
           it.  The next sync comparison sees whether anything of either
           detour survived *)
        let s = Embsan_snap.Snap.capture mb in
        for _ = 1 to 2 do
          let chunk = Rng.range rng 1 cfg.sync in
          ignore (Machine.run mb ~max_insns:chunk : Machine.stop);
          ignore (Embsan_snap.Snap.restore s : int)
        done)
  in
  let rec go = function
    | [] -> assert false
    | [ v ] -> run_variant v
    | v :: rest -> (
        match run_variant v with
        | (Some _, _) as r -> r
        | None, _ -> go rest)
  in
  go
    [
      (Machine.Fast, false);
      (Machine.Fast, true);
      (Machine.Baseline, false);
      (Machine.Baseline, true);
    ]

let all =
  [
    ("fast-vs-baseline", fast_vs_baseline);
    ("probe-transparency", probe_transparency);
    ("flush-anytime", flush_anytime);
    ("subscription-churn", subscription_churn);
    ("toggle-storm", toggle_storm);
    ("sched-transparency", sched_transparency);
    ("rehost-transparency", rehost_transparency);
    ("restore-transparency", restore_transparency);
  ]
