(* Measured-throughput bench for the execution engine.

   Unlike the modeled-cycle overhead bench (overhead.ml / Figure 2), this
   measures real host wall-clock throughput (guest insns/sec) of the
   emulator's run loop in four configurations:

     baseline       the pre-overhaul per-instruction interpreter
                    (Machine.Baseline, kept as the semantics reference)
     fast           the chained, allocation-free, batch-accounted engine
     kasan_probed   fast engine with the EmbSan-D KASAN runtime attached
     kcsan_probed   fast engine with the EmbSan-D KCSAN runtime attached

   The uninstrumented numbers come from a synthetic hot loop (stores,
   loads, calls, AMO, branches - every fast-path template); the probed
   numbers replay benign syscall sequences on a real firmware so the
   probe traffic is the runtime's own.

   Two sections pin the fuzzing-first engine work:

     toggle_storm   the hot loop with an instrumentation toggle between
                    every 50k-insn chunk; toggles patch sites in place,
                    so its [flushes_invalidate] must be exactly 0
     cmplog_gate    a fixed-seed campaign on the magic-gate firmware with
                    compare-operand coverage off vs on -- only the cmplog
                    run may pass the 32-bit-token guard

   Ratio-based guards at the end fail the bench (non-zero exit) if the
   engine regresses below the PR-4 floors.  Results are written to
   BENCH_emu.json; see README.md for the schema. *)

open Embsan_isa
open Embsan_emu
module Embsan = Embsan_core.Embsan
module Replay = Embsan_guest.Replay
module Firmware_db = Embsan_guest.Firmware_db

let hot_loop_insns = 4_000_000
let probed_insns = 400_000

(* Minimum measured duration per configuration: the probed workloads
   complete their insn budget in single-digit milliseconds, far too short
   for stable numbers, so every measurement repeats its workload until
   this much wall clock has accumulated and reports the repeat count. *)
let min_bench_secs = 0.5

(* A hot loop exercising every translation template: W8/W16/W32 memory
   traffic, a call/ret pair, an AMO, ALU ops and a two-block inner loop. *)
let hot_image ~arch =
  let open Asm in
  let text =
    [
      Label "main";
      la Reg.t0 "buf";
      li Reg.t1 0;
      Label "outer";
      li Reg.t2 0;
      li Reg.t3 64;
      Label "inner";
      store W32 Reg.t0 Reg.t2 0;
      load W32 Reg.t4 Reg.t0 0;
      store W16 Reg.t0 Reg.t4 4;
      load W16 Reg.t4 Reg.t0 4;
      store W8 Reg.t0 Reg.t4 6;
      load W8 ~signed:true Reg.s0 Reg.t0 6;
      call "leaf";
      Ins (Amo (Amo_add, Reg.s1, Reg.t0, Reg.t2));
      addi Reg.t2 Reg.t2 1;
      bltu Reg.t2 Reg.t3 "inner";
      addi Reg.t1 Reg.t1 1;
      j "outer";
      Label "leaf";
      Ins (Alu (Mul, Reg.s2, Reg.t2, Reg.t2));
      addi Reg.s2 Reg.s2 3;
      ret;
    ]
  in
  let data = [ Label "buf"; Words [ 0; 0; 0; 0 ] ] in
  Asm.assemble ~arch ~text_base:0x1_0000 ~entry:"main"
    [ { unit_name = "hot"; text; data } ]

type sample = { insns : int; secs : float; rate : float; repeats : int }

let rate_of ~insns ~secs = float_of_int insns /. secs

(* Repeat [workload ()] (which returns guest insns retired) until
   [min_bench_secs] of wall clock have accumulated. *)
let measure workload =
  let insns = ref 0 and secs = ref 0.0 and repeats = ref 0 in
  while !secs < min_bench_secs do
    let t0 = Unix.gettimeofday () in
    let n = workload () in
    secs := !secs +. (Unix.gettimeofday () -. t0);
    insns := !insns + n;
    incr repeats
  done;
  { insns = !insns; secs = !secs;
    rate = rate_of ~insns:!insns ~secs:!secs; repeats = !repeats }

let run_engine engine =
  let arch = Arch.Arm_ev in
  let m = Machine.create ~harts:1 ~arch () in
  Machine.load_image m (hot_image ~arch);
  Machine.set_engine m engine;
  Machine.boot m;
  (* warm the translation cache so translation time is excluded *)
  ignore (Machine.run m ~max_insns:10_000);
  let sample =
    measure (fun () ->
        let i0 = m.Machine.total_insns in
        (match Machine.run m ~max_insns:hot_loop_insns with
        | Machine.Budget_exhausted -> ()
        | s -> Fmt.failwith "emu bench: unexpected stop %a" Machine.pp_stop s);
        m.Machine.total_insns - i0)
  in
  (sample, m.Machine.stats)

(* The hot loop with one instrumentation toggle per [toggle_chunk] retired
   insns: a fixed rotation over probe subscribe/unsubscribe, dirty
   tracking and cmplog, each of which just pokes the site table. *)
let toggle_chunk = 50_000

let run_toggle () =
  let arch = Arch.Arm_ev in
  let m = Machine.create ~harts:1 ~arch () in
  Machine.load_image m (hot_image ~arch);
  Machine.boot m;
  ignore (Machine.run m ~max_insns:10_000);
  let sub = ref None in
  let phase = ref 0 in
  let toggle () =
    let on = (!phase / 3) land 1 = 0 in
    (match !phase mod 3 with
    | 0 -> (
        match !sub with
        | None ->
            sub := Some (Probe.subscribe_block m.Machine.probes (fun _ -> ()))
        | Some s ->
            Probe.unsubscribe s;
            sub := None)
    | 1 -> Machine.set_dirty_tracking m on
    | _ -> Machine.set_cmplog m on);
    incr phase
  in
  let toggles = ref 0 in
  let sample =
    measure (fun () ->
        let i0 = m.Machine.total_insns in
        while m.Machine.total_insns - i0 < hot_loop_insns do
          (match Machine.run m ~max_insns:toggle_chunk with
          | Machine.Budget_exhausted -> ()
          | s -> Fmt.failwith "emu bench: unexpected stop %a" Machine.pp_stop s);
          toggle ();
          incr toggles
        done;
        m.Machine.total_insns - i0)
  in
  (sample, !toggles, m.Machine.stats.Engine_stats.flushes_invalidate)

(* Fixed-seed campaign on the magic-gate firmware: without cmplog the
   mutator cannot produce the 32-bit token; with it the guest's own
   compare donates the operand and the gated bug falls. *)
let gate_execs = 2_000

let run_gate use_cmplog =
  let fw = Firmware_db.cmplog_gate_fw in
  let cfg =
    {
      (Embsan_fuzz.Campaign.default_config fw) with
      max_execs = gate_execs;
      seed = 1;
      use_cmplog;
    }
  in
  let r = Embsan_fuzz.Campaign.run cfg in
  let to_bug =
    match r.r_found with
    | f :: _ -> Some f.Embsan_fuzz.Campaign.f_exec
    | [] -> None
  in
  (r, to_bug)

(* Throughput with a live EmbSan-D runtime: boot the syzbot firmware,
   replay its benign syscall sequences until the insn budget is spent. *)
let run_probed sanitizers =
  let fw = Firmware_db.syzbot_suite_fw in
  match Replay.boot fw (Replay.Embsan_mode (sanitizers, `D)) with
  | exception Replay.Boot_failed msg ->
      Fmt.epr "emu bench: probed boot failed (%s), its guard fails@." msg;
      None
  | inst ->
      let calls =
        List.concat_map
          (fun (b : Embsan_guest.Defs.bug) -> b.b_benign)
          fw.fw_bugs
      in
      if calls = [] then None
      else begin
        let m = inst.Replay.machine in
        Some
          (measure (fun () ->
               let i0 = m.Machine.total_insns in
               while m.Machine.total_insns - i0 < probed_insns do
                 ignore (Replay.replay inst calls)
               done;
               m.Machine.total_insns - i0))
      end

let sample_json s =
  Printf.sprintf
    {|{ "guest_insns": %d, "wall_secs": %.6f, "insns_per_sec": %.0f, "repeats": %d }|}
    s.insns s.secs s.rate s.repeats

let opt_json = function Some s -> sample_json s | None -> "null"

(* Ratio-based regression floors, derived from the PR-4 BENCH_emu.json
   (baseline 23.7M, fast 105.9M, kasan 22.2M, kcsan 86.5M insns/sec on the
   reference host).  Ratios are host-independent; the margins absorb
   normal machine-to-machine noise but not a real regression.  The KASAN
   floor is 1.5x since probed accesses run translate-time specialized
   sites (an exempt site only counts; KASAN's decides most accesses from
   one shadow byte): on a 2-vCPU AMD EPYC they measured a median of 1.8x
   over 18 runs alternating with other builds (1.48-2.04x on a loaded
   host), where the per-event dispatch they replaced measured 1.3-1.4x.
   A probed row that did not run fails its guard. *)
let guards ~speedup ~chain_rate ~kasan_ratio ~kcsan_ratio ~storm_flushes
    ~gate_solved =
  [
    ("speedup_fast_vs_baseline >= 3.0", speedup >= 3.0);
    ("chain_rate >= 0.90", chain_rate >= 0.90);
    ( "kasan_probed >= 1.5 x baseline",
      match kasan_ratio with None -> false | Some r -> r >= 1.5 );
    ( "kcsan_probed >= 2.0 x baseline",
      match kcsan_ratio with None -> false | Some r -> r >= 2.0 );
    ("toggle storm flush-free (flushes_invalidate = 0)", storm_flushes = 0);
    ("cmplog solves the magic gate", gate_solved);
  ]

let run () =
  Fmt.pr "@.Execution-engine throughput (host wall clock)@.";
  let baseline, _ = run_engine Machine.Baseline in
  let fast, stats = run_engine Machine.Fast in
  let kasan = run_probed Embsan.kasan_only in
  let kcsan = run_probed Embsan.kcsan_only in
  let speedup = fast.rate /. baseline.rate in
  let row name (s : sample) note =
    Fmt.pr "  %-14s %10.2f M insns/sec   %s@." name (s.rate /. 1e6) note
  in
  row "baseline" baseline "(pre-overhaul interpreter)";
  row "fast" fast (Fmt.str "(%.2fx baseline)" speedup);
  Option.iter (fun s -> row "kasan-probed" s "(EmbSan-D KASAN attached)") kasan;
  Option.iter (fun s -> row "kcsan-probed" s "(EmbSan-D KCSAN attached)") kcsan;
  Fmt.pr "  engine: %a@." Engine_stats.pp stats;
  Fmt.pr "@.Toggle storm (one toggle per %dk insns)@." (toggle_chunk / 1000);
  let storm, storm_toggles, storm_flushes = run_toggle () in
  row "storm" storm
    (Fmt.str "(%d toggles, %d flushes)" storm_toggles storm_flushes);
  Fmt.pr "@.Cmplog magic gate (%d execs, seed 1)@." gate_execs;
  let gate_off, off_to_bug = run_gate false in
  let gate_on, on_to_bug = run_gate true in
  let gate_row name (r : Embsan_fuzz.Campaign.result) to_bug =
    Fmt.pr "  %-14s %d/%d bugs, cov %d%s@." name (List.length r.r_found)
      (List.length r.r_fw.fw_bugs) r.r_coverage
      (match to_bug with
      | Some e -> Fmt.str ", gate passed at exec %d" e
      | None -> ", gate never passed")
  in
  gate_row "cmplog-off" gate_off off_to_bug;
  gate_row "cmplog-on" gate_on on_to_bug;
  let chain_rate = Engine_stats.chain_rate stats in
  let ratio_of = Option.map (fun (s : sample) -> s.rate /. baseline.rate) in
  let checks =
    guards ~speedup ~chain_rate ~kasan_ratio:(ratio_of kasan)
      ~kcsan_ratio:(ratio_of kcsan) ~storm_flushes
      ~gate_solved:(off_to_bug = None && on_to_bug <> None)
  in
  let int_opt = function Some e -> string_of_int e | None -> "null" in
  let json =
    Printf.sprintf
      {|{
  "schema": "embsan-emu-bench/4",
  "workload": {
    "uninstrumented": "synthetic hot loop (stores, loads, call/ret, AMO, branches), %d insns per repeat, cache warmed",
    "probed": "benign syscall replay on %s, >= %d insns per repeat",
    "toggle_storm": "hot loop, one instrumentation toggle per %d insns",
    "cmplog_gate": "campaign on %s, %d execs, seed 1, cmplog off vs on",
    "min_wall_secs_per_config": %.2f
  },
  "baseline": %s,
  "fast": %s,
  "speedup_fast_vs_baseline": %.2f,
  "kasan_probed": %s,
  "kcsan_probed": %s,
  "toggle_storm": {
    "run": %s,
    "toggles": %d,
    "flushes_invalidate": %d
  },
  "cmplog_gate": {
    "off": { "found": %d, "coverage": %d, "execs_to_bug": %s },
    "on": { "found": %d, "coverage": %d, "execs_to_bug": %s }
  },
  "engine_stats": %s,
  "guards": [
%s
  ]
}
|}
      hot_loop_insns Firmware_db.syzbot_suite_fw.fw_name probed_insns
      toggle_chunk Firmware_db.cmplog_gate_fw.fw_name gate_execs
      min_bench_secs (sample_json baseline) (sample_json fast) speedup
      (opt_json kasan) (opt_json kcsan) (sample_json storm) storm_toggles
      storm_flushes
      (List.length gate_off.r_found)
      gate_off.r_coverage (int_opt off_to_bug)
      (List.length gate_on.r_found)
      gate_on.r_coverage (int_opt on_to_bug)
      (Engine_stats.to_json stats)
      (String.concat ",\n"
         (List.map
            (fun (name, ok) ->
              Printf.sprintf {|    { "guard": "%s", "pass": %b }|} name ok)
            checks))
  in
  let oc = open_out "BENCH_emu.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "  wrote BENCH_emu.json@.";
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  if failed <> [] then begin
    List.iter (fun (name, _) -> Fmt.epr "  GUARD FAILED: %s@." name) failed;
    Fmt.failwith "emu bench: %d regression guard(s) failed"
      (List.length failed)
  end
  else Fmt.pr "  all %d regression guards pass@." (List.length checks)
