(* The traced run: the benchmark's own exec loop, built from the public
   calls [Campaign.Engine.step] makes, with one span around each call.  It
   reproduces the engine's trajectory draw for draw (corpus picks,
   mutation, rehost seeds, crash recovery, confirmation replays), which
   the driver checks by comparing its counts with an untraced run of the
   same campaign seed.  Spans are kept in memory and written out when the
   loop ends. *)

open Embsan_guest
open Perfbench
module W = Workload
module Corpus = Embsan_fuzz.Corpus
module Prog = Embsan_fuzz.Prog
module Rng = Embsan_fuzz.Rng
module Embsan = Embsan_core.Embsan
module Report = Embsan_core.Report
module Coverage = Embsan_emu.Coverage
module Cmplog = Embsan_emu.Cmplog
module Machine = Embsan_emu.Machine
module Engine_stats = Embsan_emu.Engine_stats
module Image = Embsan_isa.Image
module Snap = Embsan_snap.Snap
module Rehost = Embsan_rehost.Rehost
module Codegen = Embsan_minic.Codegen

let now () = Int64.to_int (Monotonic_clock.now ())

(* --- span recorder ------------------------------------------------------ *)

let closed : (int * Stats.span) list ref = ref []
let next_id = ref 0
let current = ref (-1)
let exec_id = ref (-1)

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let t0 = now () in
  let close () =
    let t1 = now () in
    current := parent;
    closed := (id, { Stats.name; parent; exec = !exec_id; t0; t1 }) :: !closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception ex ->
      close ();
      raise ex

let spans () =
  let a =
    Array.make !next_id { Stats.name = ""; parent = -1; exec = -1; t0 = 0; t1 = 0 }
  in
  List.iter (fun (id, s) -> a.(id) <- s) !closed;
  a

(* --- the engine's private helpers, rebuilt from public calls ------------- *)

let arm_rehost ~irq ctl seed =
  let root = Rng.create ~seed in
  let mr = Rng.split_stream root ~shard:0 ~stream:"mmio" in
  let irq =
    if irq then begin
      let ir = Rng.split_stream root ~shard:0 ~stream:"irq" in
      Some (fun n -> Rng.below ir n)
    end
    else None
  in
  Rehost.arm ?irq ctl ~mmio:(fun () -> Rng.next mr)

let match_bug symbolize (fw : Firmware_db.firmware) (r : Report.t) =
  let loc = match r.location with Some l -> Some l | None -> symbolize r.pc in
  List.find_opt
    (fun (b : Defs.bug) ->
      Defs.kind_matches b r.kind
      && match loc with Some l -> List.mem l (Defs.bug_symbols b) | None -> false)
    fw.fw_bugs

let match_crash (fw : Firmware_db.firmware) = function
  | Machine.Fault (_, "null pointer dereference") ->
      List.find_opt (fun (b : Defs.bug) -> b.b_class = Defs.Null_bug) fw.fw_bugs
  | _ -> None

(* Confirmation replays on one lazily booted instance, restored per
   attempt. *)
let make_try_repro (w : W.t) =
  let state = ref None in
  fun bug ?rehost calls ->
    match
      match !state with
      | Some s -> s
      | None ->
          let i = Replay.boot w.fw (Replay.Embsan_cfg w.sanitizers) in
          let rc = if w.rehost then Some (Rehost.create i.machine) else None in
          let s = Snap.capture ?runtime:i.rt i.machine in
          state := Some (i, rc, s);
          (i, rc, s)
    with
    | exception Replay.Boot_failed _ -> false
    | i, rc, s ->
        ignore (Snap.restore s : int);
        Machine.set_sched i.machine None;
        (match (rc, rehost) with
        | Some c, Some seed -> arm_rehost ~irq:w.rehost c seed
        | Some c, None -> Rehost.disarm c
        | None, _ -> ());
        let before = List.length (Report.unique_reports i.sink) in
        let o = Replay.replay i calls in
        let fresh = List.filteri (fun k _ -> k >= before) o.o_reports in
        Replay.detects bug { o with o_reports = fresh }

(* Minimization toward no rehost seed, then the recent history prepended
   and greedily shrunk; [true] when some candidate reproduces. *)
let confirm ~try_repro ?rehost bug ~history prog =
  let calls = Prog.to_reproducer prog in
  let candidates = if rehost = None then [ None ] else [ None; rehost ] in
  List.exists (fun r -> try_repro bug ?rehost:r calls) candidates
  ||
  let full = List.concat_map Prog.to_reproducer history @ calls in
  try_repro bug ?rehost full
  &&
  let rec shrink = function
    | [] -> ()
    | _ :: rest ->
        if try_repro bug ?rehost (List.concat_map Prog.to_reproducer rest @ calls)
        then shrink rest
  in
  shrink history;
  true

(* --- counts both runs report ------------------------------------------- *)

type counts = {
  insns : int;
  coverage : int;
  corpus : int;
  stops : int;  (** architectural crashes and budget hangs *)
  hangs : int;
  found : (string * int * bool) list;  (** bug id, first exec, confirmed *)
  unmatched : string list;
}

let print_counts c =
  Printf.printf "count insns=%d coverage=%d corpus=%d stops=%d hangs=%d\n" c.insns
    c.coverage c.corpus c.stops c.hangs;
  List.iter
    (fun (id, exec, ok) ->
      Printf.printf "found %s %d %s\n" id exec
        (if ok then "confirmed" else "unconfirmed"))
    (List.sort compare c.found);
  List.iter (Printf.printf "unmatched %s\n") (List.sort_uniq compare c.unmatched)

(* --- set-up, loop and sanitizer A/B ----------------------------------- *)

let boot_instance (w : W.t) config =
  let cov = Coverage.create ~harts:2 in
  let inst = Replay.boot ~kcov:(W.uses_kcov w) w.fw config in
  if W.uses_kcov w then Coverage.attach_kcov cov inst.machine
  else Coverage.attach_tcg cov inst.machine;
  let ctl = if w.rehost then Some (Rehost.create inst.machine) else None in
  (inst, cov, ctl)

let copy_stats (s : Engine_stats.t) = { s with translations = s.translations }

(* Replay [inputs] in order on a fresh instance under [config], with the
   loop's restore discipline; host ns and guest insns of the replays. *)
let ab_replay (w : W.t) inputs config =
  let inst, cov, ctl = boot_instance w config in
  let snap = Snap.capture ?runtime:inst.rt inst.machine in
  let ns = ref 0 and insns = ref 0 in
  List.iter
    (fun (prog, rehost) ->
      (match ctl with
      | Some c -> (
          ignore (Snap.restore snap : int);
          match rehost with
          | Some seed -> arm_rehost ~irq:w.rehost c seed
          | None -> Rehost.disarm c)
      | None -> ());
      Coverage.reset_edges cov;
      let calls = Prog.to_reproducer prog in
      let t0 = now () in
      let o = Replay.replay inst calls in
      ns := !ns + (now () - t0);
      insns := !insns + o.o_insns;
      if o.o_crash <> None then ignore (Snap.restore snap : int))
    inputs;
  (!ns, !insns)

(* Sanitizer A/B instances; every workload's own selection is one of
   the two sanitized ones. *)
let ab_configs =
  [
    ("none", Replay.No_sanitizer);
    ("kasan", Replay.Embsan_cfg Embsan.kasan_only);
    ("kcsan", Replay.Embsan_cfg Embsan.kcsan_only);
  ]

let write_spans path (a : Stats.span array) self =
  let oc = open_out path in
  output_string oc "id\tparent\texec\tname\tstart_ns\tend_ns\tself_ns\n";
  Array.iteri
    (fun i (s : Stats.span) ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\n" i s.parent s.exec s.name
        s.t0 s.t1 self.(i))
    a;
  close_out oc

(* One traced campaign; prints set-up stage times, per-layer span totals,
   counters, A/B replay times and the counts, then writes the spans to
   [spans_path]. *)
let run (w : W.t) ~seed ~spans_path =
  let rng = Rng.create ~seed in
  let rehost_rng =
    if w.rehost then Some (Rng.split_stream rng ~shard:0 ~stream:"rehost")
    else None
  in
  let kcov = W.uses_kcov w in
  let inst, cov, rehost_ctl, snap, truth =
    span "setup" (fun () ->
        let truth =
          span "minic.compile" (fun () ->
              let mode =
                match w.fw.fw_inst with
                | Firmware_db.EmbSan_C -> Codegen.Trap_callout
                | Firmware_db.EmbSan_D -> Codegen.Plain
              in
              ignore (w.fw.fw_build ~kcov mode : Image.t);
              w.fw.fw_truth ~kcov:false Codegen.Plain)
        in
        span "core.probe" (fun () ->
            ignore (Replay.session_for ~kcov w.fw w.sanitizers : Embsan.session));
        let inst, cov, ctl =
          span "guest.boot" (fun () ->
              boot_instance w (Replay.Embsan_cfg w.sanitizers))
        in
        let snap =
          span "snap.capture" (fun () -> Snap.capture ?runtime:inst.rt inst.machine)
        in
        (inst, cov, ctl, snap, truth))
  in
  let symbolize pc =
    Option.map (fun (s : Image.symbol) -> s.name) (Image.symbol_at truth pc)
  in
  let machine = inst.Replay.machine in
  let try_repro = make_try_repro w in
  let corpus = Corpus.create () in
  let found = Hashtbl.create 16 and unmatched = ref [] in
  let history = ref [] and seen_reports = ref 0 in
  let insns = ref 0 and insns_base = ref 0 in
  let stops = ref 0 and hangs = ref 0 and admitted = ref 0 in
  let pairs = ref 0 and records = ref 0 and memo = ref 0 in
  let restores = ref 0 and pages = ref 0 and replay_insns = ref 0 in
  let inputs = ref [] in
  (* revert to the post-boot checkpoint, re-baselining the instruction
     and report counters exactly as the engine does *)
  let restore () =
    insns := !insns + (machine.total_insns - !insns_base);
    pages := !pages + Snap.restore snap;
    incr restores;
    insns_base := machine.total_insns;
    seen_reports := List.length (Report.unique_reports inst.sink);
    history := []
  in
  let note_bug execs bug ?rehost prog =
    if not (Hashtbl.mem found bug.Defs.b_id) then
      Hashtbl.replace found bug.Defs.b_id
        ( execs,
          confirm ~try_repro ?rehost bug ~history:(List.rev !history) prog )
  in
  let stats0 = copy_stats machine.stats in
  let loop_t0 = now () in
  for execs = 1 to w.budget do
    exec_id := execs - 1;
    span "fuzz.exec" (fun () ->
        let prog, rehost =
          span "fuzz.mutate" (fun () ->
              let prog, inherited =
                if Corpus.size corpus > 0 && Rng.chance rng ~percent:70 then begin
                  let base = Corpus.pick rng corpus in
                  ( Prog.mutate rng w.fw.fw_syscalls
                      ~corpus_pick:(fun () ->
                        Option.map (fun (p, _, _) -> p) (Corpus.pick rng corpus))
                      ~dict:[||]
                      ~i2s:(Cmplog.counterpart machine.cmplog)
                      (match base with Some (p, _, _) -> p | None -> []),
                    match base with Some (_, _, r) -> r | None -> None )
                end
                else (Prog.gen rng w.fw.fw_syscalls, None)
              in
              let rehost =
                match rehost_rng with
                | None -> None
                | Some rr -> (
                    match inherited with
                    | Some s when Rng.chance rr ~percent:50 -> Some s
                    | _ -> Some (Rng.next rr land 0x3FFF_FFFF))
              in
              (prog, rehost))
        in
        inputs := (prog, rehost) :: !inputs;
        (* per-exec isolation under rehosting; the stage is timed on
           every exec so a workload without it reads about zero *)
        span "snap.restore" (fun () -> if rehost_ctl <> None then restore ());
        span "rehost.arm" (fun () ->
            match rehost_ctl with
            | None -> ()
            | Some ctl -> (
                match rehost with
                | None -> Rehost.disarm ctl
                | Some seed -> arm_rehost ~irq:w.rehost ctl seed));
        span "emu.cov_reset" (fun () -> Coverage.reset_edges cov);
        history :=
          prog
          :: (if List.length !history >= 4 then
                List.filteri (fun i _ -> i < 3) !history
              else !history);
        let outcome =
          span "guest.replay" (fun () ->
              Replay.replay inst (Prog.to_reproducer prog))
        in
        replay_insns := !replay_insns + outcome.o_insns;
        records := !records + cov.blocks_seen;
        (match rehost_ctl with
        | Some ctl -> memo := !memo + Rehost.memo_size ctl
        | None -> ());
        let signature =
          span "emu.cov_signature" (fun () -> Coverage.signature cov)
        in
        pairs := !pairs + List.length signature;
        if span "fuzz.admit" (fun () -> Corpus.consider corpus prog ?rehost signature)
        then incr admitted;
        span "fuzz.triage" (fun () ->
            let reports = Report.unique_reports inst.sink in
            let n = List.length reports in
            if n > !seen_reports then begin
              let fresh = List.filteri (fun i _ -> i >= !seen_reports) reports in
              seen_reports := n;
              List.iter
                (fun r ->
                  match match_bug symbolize w.fw r with
                  | Some bug -> note_bug execs bug ?rehost prog
                  | None -> unmatched := Report.title r :: !unmatched)
                fresh
            end;
            match outcome.o_crash with
            | Some stop ->
                incr stops;
                if stop = Machine.Budget_exhausted then incr hangs;
                (match match_crash w.fw stop with
                | Some bug -> note_bug execs bug ?rehost prog
                | None -> ());
                span "snap.restore" restore
            | None -> ()))
  done;
  let loop_ns = now () - loop_t0 in
  let stats1 = machine.stats in
  insns := !insns + (machine.total_insns - !insns_base);
  let a = spans () in
  let self = Stats.self_times a in
  (* set-up stages, then per-layer totals over the loop *)
  Array.iteri
    (fun i (s : Stats.span) ->
      if s.exec < 0 && s.parent >= 0 then
        Printf.printf "setup %s %d\n" s.name self.(i))
    a;
  let totals = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Stats.span) ->
      if s.exec >= 0 then begin
        let n, t = Option.value ~default:(0, 0) (Hashtbl.find_opt totals s.name) in
        Hashtbl.replace totals s.name (n + 1, t + self.(i))
      end)
    a;
  Hashtbl.iter (fun name (n, t) -> Printf.printf "span %s %d %d\n" name n t) totals;
  Printf.printf "loop_ns %d\nexecs %d\n" loop_ns w.budget;
  let d f = f stats1 - f stats0 in
  let fast (s : Engine_stats.t) = s.chained + s.super_transfers in
  List.iter
    (fun (k, v) -> Printf.printf "ctr %s %d\n" k v)
    [
      ("pairs", !pairs);
      ("records", !records);
      ("memo", !memo);
      ("admitted", !admitted);
      ("stops", !stops);
      ("hangs", !hangs);
      ("restores", !restores);
      ("pages", !pages);
      ("replay_insns", !replay_insns);
      ("translations", d (fun s -> s.translations));
      ("flushes", d Engine_stats.flushes);
      ("rehost_reads", d (fun s -> s.rehost_reads));
      ("irqs", d (fun s -> s.irq_injected));
      ("chain_fast", d fast);
      ("chain_total", d (fun s -> s.cache_hits + s.cache_misses + fast s));
    ];
  let inputs = List.rev !inputs in
  List.iter
    (fun (label, config) ->
      let ns, insns = ab_replay w inputs config in
      Printf.printf "ab %s %d %d\n" label ns insns)
    ab_configs;
  print_counts
    {
      insns = !insns;
      coverage = Corpus.coverage corpus;
      corpus = Corpus.size corpus;
      stops = !stops;
      hangs = !hangs;
      found = Hashtbl.fold (fun id (e, ok) acc -> (id, e, ok) :: acc) found [];
      unmatched = !unmatched;
    };
  write_spans spans_path a self
