(* Coverage-guided fuzzing campaign over one firmware image, with crash
   triage against the bug registry and reproducer confirmation ("all found
   bugs have been deduplicated and are reproducible", S4.2).

   Two fuzzer front-ends matching the paper's tooling:
   - Syzkaller mode (Linux firmware): kernel-assisted kcov coverage, so the
     firmware is built with coverage callouts;
   - Tardis mode (LiteOS/FreeRTOS/VxWorks): OS-agnostic coverage straight
     from the emulator's translated-block probes, requiring nothing from
     the guest - which is why it also works on the closed-source image. *)

open Embsan_guest
module Embsan = Embsan_core.Embsan
module Report = Embsan_core.Report
module Coverage = Embsan_emu.Coverage
module Cmplog = Embsan_emu.Cmplog
module Machine = Embsan_emu.Machine
module Image = Embsan_isa.Image
module Snap = Embsan_snap.Snap
module Sched = Embsan_sched.Sched
module Rehost = Embsan_rehost.Rehost

type config = {
  fw : Firmware_db.firmware;
  sanitizers : Embsan.sanitizers;
  max_execs : int;
  seed : int;
  stop_when_all_found : bool;
  use_cmplog : bool;
      (* compare-operand coverage: per-exec cmplog features join the
         frontier signature, and the operand dictionary feeds mutation.
         Off by default so existing seeded trajectories stay pinned. *)
  use_sched : bool;
      (* fuzzer-controlled interleaving: each execution runs under a
         schedule seed drawn from a dedicated Rng stream (or inherited
         from the corpus entry being mutated), making the interleaving
         part of the input.  Off by default: the schedule stream is
         derived without advancing the main rng, so existing seeded
         trajectories stay pinned either way. *)
  use_rehost : bool;
      (* model-free MMIO rehosting (lib/rehost): unmapped-MMIO reads are
         served from a per-exec seeded stream behind a (pc, addr) memo
         table.  The rehost seed rides the corpus entry like the schedule
         seed, from its own non-advancing Rng stream. *)
  use_irq : bool;
      (* fuzzer-scheduled interrupt injection on top of [use_rehost]: the
         per-exec rehost seed also draws an injection plan ("irq" stream)
         vectoring the guest's registered stub at chosen retirement
         points. *)
}

let default_config fw =
  {
    fw;
    sanitizers = Embsan.all_sanitizers;
    max_execs = 3000;
    seed = 1;
    stop_when_all_found = true;
    use_cmplog = false;
    use_sched = false;
    use_rehost = false;
    use_irq = false;
  }

type found = {
  f_bug : Defs.bug;
  f_exec : int; (* executions until first detection *)
  f_prog : Prog.t;
  f_sched : int option; (* schedule seed the reproducer needs, if any *)
  f_rehost : int option; (* rehost seed the reproducer needs, if any *)
  f_irq : bool; (* the rehost replay also injects interrupts *)
  f_confirmed : bool; (* reproduced on a fresh instance *)
}

type result = {
  r_fw : Firmware_db.firmware;
  r_found : found list;
  r_execs : int;
  r_crashes : int;
  r_corpus : int;
  r_coverage : int;
  r_insns : int;
  r_unmatched : string list; (* report titles not matching any known bug *)
  r_corpus_progs : Prog.t list; (* the merged corpus (overhead workload) *)
}

let uses_kcov (fw : Firmware_db.firmware) = fw.fw_fuzzer = Firmware_db.Syzkaller

(* Ground-truth symbolization for scoring reports on stripped firmware. *)
let truth_symbolize (fw : Firmware_db.firmware) =
  let image = fw.fw_truth ~kcov:false Embsan_minic.Codegen.Plain in
  fun pc -> Option.map (fun (s : Image.symbol) -> s.name) (Image.symbol_at image pc)

(* Match a report to a registered bug by kind + symbol. *)
let match_bug symbolize (fw : Firmware_db.firmware) (r : Report.t) =
  let loc = match r.location with Some l -> Some l | None -> symbolize r.pc in
  List.find_opt
    (fun (b : Defs.bug) ->
      Defs.kind_matches b r.kind
      &&
      match loc with
      | Some l -> List.mem l (Defs.bug_symbols b)
      | None -> false)
    fw.fw_bugs

let match_crash (fw : Firmware_db.firmware) = function
  | Machine.Fault (_, "null pointer dereference") ->
      List.find_opt (fun (b : Defs.bug) -> b.b_class = Defs.Null_bug) fw.fw_bugs
  | _ -> None

(* The knob controllers of one booted instance, built once (before its
   post-boot checkpoint, so [Snap.capture] checkpoints the rehost
   controller) and re-armed for every replay. *)
type controls = {
  c_sched : Sched.t option;
  c_rehost : Rehost.t option;
  c_irq : bool;
}

let controls ~sched ~rehost ~irq machine =
  {
    c_sched = (if sched then Some (Sched.create machine) else None);
    c_rehost = (if rehost then Some (Rehost.create machine) else None);
    c_irq = irq;
  }

(* Arm one replay's knob seeds ([None] disarms): the schedule first, then
   the rehost layer, whose scheduler wrapper must capture the
   interleaving just armed so injection clamps compose with it.  The
   rehost seed fans out into the "mmio" response stream and (with
   injection) the "irq" plan stream via [Rng.split_stream], so a seed
   alone redraws an execution's streams. *)
let arm c ~sched ~rehost =
  Option.iter
    (fun ctl ->
      match sched with
      | None -> Sched.disarm ctl
      | Some seed ->
          let r = Rng.create ~seed in
          Sched.arm ctl ~draw:(fun n -> Rng.below r n))
    c.c_sched;
  Option.iter
    (fun ctl ->
      match rehost with
      | None -> Rehost.disarm ctl
      | Some seed ->
          let root = Rng.create ~seed in
          let mr = Rng.split_stream root ~shard:0 ~stream:"mmio" in
          let irq =
            if c.c_irq then begin
              let ir = Rng.split_stream root ~shard:0 ~stream:"irq" in
              Some (fun n -> Rng.below ir n)
            end
            else None
          in
          Rehost.arm ?irq ctl ~mmio:(fun () -> Rng.next mr))
    c.c_rehost

let config_controls cfg =
  controls ~sched:cfg.use_sched ~rehost:cfg.use_rehost ~irq:cfg.use_irq

(* Confirm a finding by replay from pristine post-boot state.  Bugs with
   cross-program state dependencies are retried with the recent program
   history prepended (then greedily shrunk), yielding a reproducer in the
   "deduplicated and reproducible" sense of S4.2. *)
let confirm ~try_repro ?sched ?rehost (bug : Defs.bug) ~history prog =
  let calls = Prog.to_reproducer prog in
  (* input minimization first, toward None: a reproducer that fires under
     the plain round-robin rotation needs no schedule seed, and one that
     fires without the rehost layer needs no rehost seed.  Try dropping
     both, then the rehost seed, then the schedule seed, then keep both. *)
  let candidates =
    let rec uniq = function
      | [] -> []
      | x :: rest -> x :: uniq (List.filter (( <> ) x) rest)
    in
    uniq [ (None, None); (sched, None); (None, rehost); (sched, rehost) ]
  in
  let rec first = function
    | [] -> None
    | (s, r) :: rest ->
        if try_repro bug ?sched:s ?rehost:r calls then Some (prog, s, r)
        else first rest
  in
  match first candidates with
  | Some _ as found -> found
  | None ->
      let full = List.concat_map Prog.to_reproducer history @ calls in
      if not (try_repro bug ?sched ?rehost full) then None
      else begin
        (* greedy shrink: drop leading history programs while it
           reproduces *)
        let rec shrink hist =
          match hist with
          | [] -> hist
          | _ :: rest ->
              let candidate =
                List.concat_map Prog.to_reproducer rest @ calls
              in
              if try_repro bug ?sched ?rehost candidate then shrink rest
              else hist
        in
        let kept = shrink history in
        Some (List.concat kept @ prog, sched, rehost)
      end

(* The per-worker fuzzing engine.  [Campaign.run] below is a trivial
   driver over it (create, step until finished, result); the campaign
   orchestrator ([lib/orch]) drives one engine per worker domain in
   epoch-sized batches, injecting frontier programs received from other
   workers between batches.  Keeping [run] on this exact code path is
   what makes an orchestrated single-worker campaign bit-identical to
   [Campaign.run] for the same seed (pinned in test/test_orch.ml). *)
module Engine = struct
  type t = {
    cfg : config;
    rng : Rng.t;
    corpus : Corpus.t;
    cov : Coverage.t;
    symbolize : int -> string option;
    inst : Replay.instance;
    controls : controls; (* knob controllers on [inst] *)
    snap : Snap.t; (* [inst]'s post-boot checkpoint *)
    sched_rng : Rng.t option; (* dedicated schedule-seed stream *)
    rehost_rng : Rng.t option; (* dedicated rehost-seed stream *)
    try_repro :
      Defs.bug -> ?sched:int -> ?rehost:int -> (int * int array) list -> bool;
    total_bugs : int;
    mutable insns_base : int; (* total_insns already credited to [insns] *)
    mutable history : Prog.t list; (* recent programs, newest first *)
    found : (string, found) Hashtbl.t;
    mutable unmatched : string list;
    mutable crashes : int;
    mutable execs : int;
    mutable insns : int;
    mutable seen_reports : int;
    (* per-epoch harvest for the orchestrator, newest first *)
    mutable fresh_frontier :
      (Prog.t * int option * int option * (int * int) list) list;
    mutable fresh_found : found list;
  }

  let create ?rng (cfg : config) =
    let rng =
      match rng with Some r -> r | None -> Rng.create ~seed:cfg.seed
    in
    (* derived WITHOUT advancing [rng], so the program-mutation trajectory
       is bit-identical whether schedule fuzzing is on or off, and a
       jobs=1 orchestrated campaign stays equal to [Campaign.run] *)
    let sched_rng =
      if cfg.use_sched then Some (Rng.split_stream rng ~shard:0 ~stream:"sched")
      else None
    in
    let rehost_rng =
      if cfg.use_rehost then
        Some (Rng.split_stream rng ~shard:0 ~stream:"rehost")
      else None
    in
    let cov = Coverage.create ~harts:2 in
    let inst =
      Replay.boot ~kcov:(uses_kcov cfg.fw) cfg.fw
        (Replay.Embsan_cfg cfg.sanitizers)
    in
    (if uses_kcov cfg.fw then Coverage.attach_kcov cov inst.machine
     else Coverage.attach_tcg cov inst.machine);
    if cfg.use_cmplog then Machine.set_cmplog inst.machine true;
    let controls = config_controls cfg inst.machine in
    (* Persistent-mode checkpoint: capture once post-boot and revert to it
       instead of rebooting.  Coverage is fuzzer-owned host state, attached
       via probes — it survives restores by design (pinned by a regression
       test in test/test_fuzz.ml). *)
    let snap = Snap.capture ?runtime:inst.rt inst.machine in
    (* Confirmation replays restore one lazily booted instance per
       attempt — the restore-transparency oracle (lib/check) is what
       justifies treating that as a fresh boot. *)
    let repro =
      lazy
        (let i = Replay.boot cfg.fw (Replay.Embsan_cfg cfg.sanitizers) in
         let c = config_controls cfg i.machine in
         (i, c, Snap.capture ?runtime:i.rt i.machine))
    in
    let try_repro bug ?sched ?rehost calls =
      match Lazy.force repro with
      | exception Replay.Boot_failed _ -> false
      | i, c, s ->
          ignore (Snap.restore s : int);
          arm c ~sched ~rehost;
          let before = List.length (Report.unique_reports i.sink) in
          let o = Replay.replay i calls in
          let fresh = List.filteri (fun k _ -> k >= before) o.o_reports in
          Replay.detects bug { o with o_reports = fresh }
    in
    {
      cfg;
      rng;
      corpus = Corpus.create ();
      cov;
      symbolize = truth_symbolize cfg.fw;
      inst;
      controls;
      snap;
      sched_rng;
      rehost_rng;
      try_repro;
      total_bugs = List.length cfg.fw.fw_bugs;
      insns_base = 0;
      history = [];
      found = Hashtbl.create 16;
      unmatched = [];
      crashes = 0;
      execs = 0;
      insns = 0;
      seen_reports = 0;
      fresh_frontier = [];
      fresh_found = [];
    }

  let all_found e = Hashtbl.length e.found >= e.total_bugs

  let finished e =
    e.execs >= e.cfg.max_execs || (e.cfg.stop_when_all_found && all_found e)

  let note_bug e bug ?sched ?rehost prog =
    if not (Hashtbl.mem e.found bug.Defs.b_id) then begin
      let entry =
        match
          confirm ~try_repro:e.try_repro ?sched ?rehost bug
            ~history:(List.rev e.history) prog
        with
        | Some (repro, rsched, rrehost) ->
            {
              f_bug = bug;
              f_exec = e.execs;
              f_prog = repro;
              f_sched = rsched;
              f_rehost = rrehost;
              f_irq = e.cfg.use_irq && rrehost <> None;
              f_confirmed = true;
            }
        | None ->
            {
              f_bug = bug;
              f_exec = e.execs;
              f_prog = prog;
              f_sched = sched;
              f_rehost = rehost;
              f_irq = e.cfg.use_irq && rehost <> None;
              f_confirmed = false;
            }
      in
      Hashtbl.replace e.found bug.Defs.b_id entry;
      e.fresh_found <- entry :: e.fresh_found
    end

  (* Revert [inst] to its post-boot checkpoint.  Retired instructions are
     credited first, since total_insns reverts to its captured value; the
     sink reverts to its post-boot contents, so re-baseline both. *)
  let restore e =
    e.insns <- e.insns + (e.inst.machine.total_insns - e.insns_base);
    ignore (Snap.restore e.snap : int);
    e.insns_base <- e.inst.machine.total_insns;
    e.seen_reports <- List.length (Report.unique_reports e.inst.sink);
    e.history <- []

  (* One execution of [prog]: run it, triage coverage, reports and
     crashes, recover if the machine died.  Shared between [step]
     (self-generated programs) and [inject] (frontier programs received
     from other workers). *)
  let execute e ?sched ?rehost prog =
    (* Per-exec isolation under rehosting: every execution starts from the
       post-boot checkpoint (which also reverts the memo table and pending
       IRQs through the rehost hook's checkpoint), so a (program, rehost
       seed) pair alone determines the trajectory and confirmation
       replays are exact. *)
    if e.cfg.use_rehost then restore e;
    arm e.controls ~sched ~rehost;
    Coverage.reset_edges e.cov;
    if e.cfg.use_cmplog then Cmplog.reset e.inst.machine.Machine.cmplog;
    e.history <-
      prog
      ::
      (if List.length e.history >= 4 then
         List.filteri (fun i _ -> i < 3) e.history
       else e.history);
    let outcome = Replay.replay e.inst (Prog.to_reproducer prog) in
    (* frontier signature: edge features (ascending, < 2^16) then cmplog
       compare features (ascending, >= Cmplog.feature_base) -- the
       recording window dedups exact (pc, lhs, rhs) triples, so admission
       sees a deterministic, duplicate-free feature list *)
    let signature =
      let edges = Coverage.signature e.cov in
      if e.cfg.use_cmplog then
        edges @ Cmplog.features e.inst.machine.Machine.cmplog
      else edges
    in
    if Corpus.consider e.corpus prog ?sched ?rehost signature then
      e.fresh_frontier <- (prog, sched, rehost, signature) :: e.fresh_frontier;
    (* new sanitizer reports? *)
    let reports = Report.unique_reports e.inst.sink in
    let n = List.length reports in
    if n > e.seen_reports then begin
      let fresh = List.filteri (fun i _ -> i >= e.seen_reports) reports in
      e.seen_reports <- n;
      List.iter
        (fun r ->
          match match_bug e.symbolize e.cfg.fw r with
          | Some bug -> note_bug e bug ?sched ?rehost prog
          | None -> e.unmatched <- Report.title r :: e.unmatched)
        fresh
    end;
    (* architectural crash: triage, then recover from the checkpoint *)
    match outcome.o_crash with
    | Some stop ->
        e.crashes <- e.crashes + 1;
        (match match_crash e.cfg.fw stop with
        | Some bug -> note_bug e bug ?sched ?rehost prog
        | None -> ());
        restore e
    | None -> ()

  let step e =
    e.execs <- e.execs + 1;
    let prog, inherited_sched, inherited_rehost =
      if Corpus.size e.corpus > 0 && Rng.chance e.rng ~percent:70 then begin
        let dict =
          if e.cfg.use_cmplog then
            Cmplog.dict_values e.inst.machine.Machine.cmplog
          else [||]
        in
        (* one corpus draw for the mutation base, exactly as before; the
           entry's schedule and rehost seeds ride along as mutation
           input *)
        let base = Corpus.pick e.rng e.corpus in
        ( Prog.mutate e.rng e.cfg.fw.fw_syscalls
            ~corpus_pick:(fun () ->
              Option.map
                (fun (p, _, _) -> p)
                (Corpus.pick e.rng e.corpus))
            ~dict
            ~i2s:(Cmplog.counterpart e.inst.machine.Machine.cmplog)
            (match base with Some (p, _, _) -> p | None -> []),
          (match base with Some (_, s, _) -> s | None -> None),
          match base with Some (_, _, r) -> r | None -> None )
      end
      else (Prog.gen e.rng e.cfg.fw.fw_syscalls, None, None)
    in
    (* schedule mutation, from the dedicated stream: keep the inherited
       interleaving half the time, otherwise redraw *)
    let sched =
      match e.sched_rng with
      | None -> None
      | Some sr -> (
          match inherited_sched with
          | Some s when Rng.chance sr ~percent:50 -> Some s
          | _ -> Some (Rng.next sr land 0x3FFF_FFFF))
    in
    (* rehost-seed mutation follows the same inherit-or-redraw policy,
       from its own stream *)
    let rehost =
      match e.rehost_rng with
      | None -> None
      | Some rr -> (
          match inherited_rehost with
          | Some s when Rng.chance rr ~percent:50 -> Some s
          | _ -> Some (Rng.next rr land 0x3FFF_FFFF))
    in
    execute e ?sched ?rehost prog

  (* Frontier import: execute a program another worker found productive
     (under the schedule and rehost seeds it was productive with).  It
     counts as an execution (it costs one), joins the corpus if it yields
     locally-new coverage, and goes through the same report/crash triage
     as a generated program. *)
  let inject e ?sched ?rehost prog =
    e.execs <- e.execs + 1;
    execute e ?sched ?rehost prog

  let drain_frontier e =
    let l = List.rev e.fresh_frontier in
    e.fresh_frontier <- [];
    l

  let drain_found e =
    let l = List.rev e.fresh_found in
    e.fresh_found <- [];
    l

  let execs e = e.execs
  let crashes e = e.crashes
  let corpus_size e = Corpus.size e.corpus
  let coverage e = Corpus.coverage e.corpus
  let unmatched e = List.sort_uniq compare e.unmatched

  (* Retired guest instructions so far, credited across snapshot rollbacks
     exactly as [result] reports them. *)
  let insns_now e = e.insns + (e.inst.machine.total_insns - e.insns_base)

  let result e =
    e.insns <- e.insns + (e.inst.machine.total_insns - e.insns_base);
    e.insns_base <- e.inst.machine.total_insns;
    {
      r_fw = e.cfg.fw;
      r_found = Hashtbl.fold (fun _ f acc -> f :: acc) e.found [];
      r_execs = e.execs;
      r_crashes = e.crashes;
      r_corpus = Corpus.size e.corpus;
      r_coverage = Corpus.coverage e.corpus;
      r_insns = e.insns;
      r_unmatched = List.sort_uniq compare e.unmatched;
      r_corpus_progs = Corpus.programs e.corpus;
    }
end

let run (cfg : config) : result =
  let e = Engine.create cfg in
  while not (Engine.finished e) do
    Engine.step e
  done;
  Engine.result e

(* The overhead experiment (Figure 2) replays the merged corpus; programs
   that trigger sanitizer reports or crashes are excluded so the workload
   measures steady-state behavior rather than post-corruption allocator
   pathologies. *)
let clean_corpus (fw : Firmware_db.firmware) (progs : Prog.t list) =
  (* each fixpoint pass starts from the post-boot checkpoint *)
  let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.all_sanitizers) in
  let snap = Snap.capture ?runtime:inst.rt inst.machine in
  let filter_pass progs =
    ignore (Snap.restore snap : int);
    List.filter
      (fun p ->
        let before = Report.total_hits inst.sink in
        let o = Replay.replay inst (Prog.to_reproducer p) in
        o.o_crash = None && Report.total_hits inst.sink = before)
      progs
  in
  (* iterate: dropping a program changes the allocator state the survivors
     run under, which can expose previously-masked triggers (e.g. an
     overflow that used to fail its allocation) *)
  let rec fixpoint progs n =
    let survivors = filter_pass progs in
    if n = 0 || List.length survivors = List.length progs then survivors
    else fixpoint survivors (n - 1)
  in
  fixpoint progs 4

let pp_result fmt r =
  Fmt.pf fmt "@[<v>%s: %d/%d bugs in %d execs (%d crashes, corpus %d, cov %d)@,%a@]"
    r.r_fw.fw_name (List.length r.r_found)
    (List.length r.r_fw.fw_bugs)
    r.r_execs r.r_crashes r.r_corpus r.r_coverage
    (Fmt.list ~sep:Fmt.cut (fun fmt f ->
         (* surface the seeds this reproducer (the printed call list
            replayed from pristine state) was confirmed with *)
         let seed_hint =
           String.concat ""
             [
               (match f.f_sched with
               | Some s -> Printf.sprintf " (sched seed %d)" s
               | None -> "");
               (match f.f_rehost with
               | Some s ->
                   Printf.sprintf " (rehost seed %d%s)" s
                     (if f.f_irq then " + irq" else "")
               | None -> "");
             ]
         in
         Fmt.pf fmt "  exec %5d %s %-32s [%a]%s" f.f_exec
           (if f.f_confirmed then "CONFIRMED" else "unconfirmed")
           f.f_bug.b_id Prog.pp f.f_prog seed_hint))
    (List.sort (fun a b -> compare a.f_exec b.f_exec) r.r_found)
