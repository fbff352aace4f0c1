(* Fuzzer-controlled multi-hart interleaving scheduler (FuzzBox
   direction): replaces the machine's fixed round-robin hart rotation
   with seeded, fuzzer-chosen preemption points, so concurrency bugs are
   searched for instead of stumbled on.

   The scheduler plugs into the public [Machine.set_sched] hook.  Every
   decision is a pure function of the draw stream and the machine's
   architectural progress ([total_insns] and per-hart runnability), both
   of which are engine-invariant: Fast and Baseline stop each turn at the
   first block boundary at or past the turn deadline, and block
   boundaries depend only on guest code.  A given (policy, seed) therefore
   produces the identical interleaving on both engines — the
   sched-transparency oracle pins this.

   Two policies, chosen by the schedule seed:

   - [Slices]: run a randomly chosen runnable hart for a budgeted slice
     of 16..512 retired instructions (geometric draw), then re-choose.
     This is the workhorse: short slices land preemptions inside narrow
     windows the round-robin rotation essentially never splits.
   - [Priorities]: PCT-style — each hart gets a random priority; the
     highest-priority runnable hart runs in small fixed quanta, and at
     random change points (every few thousand instructions) one hart's
     priority is redrawn.  Produces long lopsided phases with occasional
     inversions, a shape slice scheduling rarely generates.

   The draw stream is an abstract [int -> int] closure (give it
   [Rng.below] of a dedicated split stream) so this library stays free of
   fuzzer dependencies and the schedule is replayable from one integer
   seed. *)

open Embsan_emu

type policy = Slices | Priorities

type t = {
  machine : Machine.t;
  mutable draw : int -> int; (* draw n: uniform in [0, n) *)
  mutable policy : policy;
  mutable cur : int; (* hart owning the current slice; -1 = none *)
  mutable slice_end : int; (* absolute total_insns deadline of the slice *)
  prio : int array; (* Priorities policy: per-hart priority *)
  mutable change_gap : int; (* insns between priority change points *)
  mutable next_change : int;
  mutable slices : int; (* stats: slices started *)
  mutable switches : int; (* stats: slices that changed hart *)
}

let create machine =
  {
    machine;
    draw = (fun _ -> 0);
    policy = Slices;
    cur = -1;
    slice_end = 0;
    prio = Array.make (Array.length machine.Machine.harts) 0;
    change_gap = 4096;
    next_change = 0;
    slices = 0;
    switches = 0;
  }

(* Priority quantum: small and fixed, so the scheduler gets a decision
   point (and a possible preemption) every 64 retired instructions. *)
let prio_quantum = 64

let min_slice_shift = 4 (* slices are 16 lsl (0..5) = 16..512 insns *)
let slice_shifts = 6

let nth_runnable m k =
  let harts = m.Machine.harts in
  let rec go i k =
    if i >= Array.length harts then None
    else if Machine.runnable m harts.(i) then
      if k = 0 then Some i else go (i + 1) (k - 1)
    else go (i + 1) k
  in
  go 0 k

let count_runnable m =
  Array.fold_left
    (fun acc cpu -> if Machine.runnable m cpu then acc + 1 else acc)
    0 m.Machine.harts

let start_slice t hart =
  if hart <> t.cur then t.switches <- t.switches + 1;
  t.cur <- hart;
  t.slices <- t.slices + 1;
  t.slice_end <-
    t.machine.Machine.total_insns + (1 lsl (min_slice_shift + t.draw slice_shifts))

let hook t (m : Machine.t) =
  let harts = m.Machine.harts in
  match t.policy with
  | Slices ->
      if
        t.cur >= 0
        && m.Machine.total_insns < t.slice_end
        && Machine.runnable m harts.(t.cur)
      then Some (harts.(t.cur), t.slice_end)
      else begin
        match count_runnable m with
        | 0 -> None
        | k -> (
            match nth_runnable m (t.draw k) with
            | None -> None (* unreachable: k counted runnables *)
            | Some hart ->
                start_slice t hart;
                Some (harts.(hart), t.slice_end))
      end
  | Priorities ->
      let n = Array.length harts in
      if m.Machine.total_insns >= t.next_change then begin
        t.prio.(t.draw n) <- t.draw 1_000_000;
        t.next_change <- m.Machine.total_insns + t.change_gap
      end;
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if
          Machine.runnable m harts.(i)
          && (!best < 0 || t.prio.(i) > t.prio.(!best))
        then best := i
      done;
      if !best < 0 then None
      else begin
        if !best <> t.cur then begin
          t.switches <- t.switches + 1;
          t.cur <- !best;
          t.slices <- t.slices + 1
        end;
        (* never let a turn cross the next change point: both engines then
           first observe the crossing at the same block boundary, keeping
           redraw times engine-invariant *)
        Some
          (harts.(!best), min (m.Machine.total_insns + prio_quantum) t.next_change)
      end

(** Arm the scheduler on its machine with a fresh draw stream, resetting
    all decision state (so the same seed always replays the same
    schedule).  When [policy] is omitted it is drawn from the stream:
    1-in-4 priorities, else slices. *)
let arm ?policy t ~draw =
  t.draw <- draw;
  t.policy <-
    (match policy with
    | Some p -> p
    | None -> if draw 4 = 0 then Priorities else Slices);
  t.cur <- -1;
  t.slice_end <- 0;
  t.slices <- 0;
  t.switches <- 0;
  (match t.policy with
  | Slices -> ()
  | Priorities ->
      for i = 0 to Array.length t.prio - 1 do
        t.prio.(i) <- draw 1_000_000
      done;
      t.change_gap <- 2048 + draw 4096;
      t.next_change <- t.machine.Machine.total_insns + t.change_gap);
  Machine.set_sched t.machine (Some (hook t))

(** Restore the machine's built-in round-robin rotation. *)
let disarm t = Machine.set_sched t.machine None

let armed t = t.machine.Machine.sched <> None
let policy t = t.policy

let stats t =
  [
    ("slices", t.slices);
    ("switches", t.switches);
  ]
