(* Tests for the multi-domain campaign orchestrator (lib/orch):
   domain-safety of the toplevel registries workers hit concurrently,
   the jobs=1 reduction to Campaign.run, cross-repetition determinism
   of multi-worker campaigns, and the frontier-exchange/global-triage
   machinery. *)

open Embsan_guest
open Embsan_fuzz
module Orch = Embsan_orch.Orch
module Embsan = Embsan_core.Embsan

let small_fw () = Option.get (Firmware_db.find "OpenHarmony-stm32f407")
let closed_fw () = Option.get (Firmware_db.find "TP-Link WDR-7660")

(* --- domain safety of shared toplevel state -------------------------------------- *)

(* Four domains boot (firmware build cache, session cache, plugin table
   lookups via Runtime.attach) and replay concurrently.  The caches are
   cold for at least one firmware here because this test runs first in
   its own binary; the mutexes in Replay/Firmware_db are what make this
   race-free, and the plugin table is immutable. *)
let concurrent_attach_race_free () =
  let fw = small_fw () in
  let benign =
    List.concat_map (fun (b : Defs.bug) -> b.b_benign) fw.fw_bugs
  in
  let points =
    Embsan_core.Api_spec.
      [ P_load; P_store; P_func_alloc; P_func_free; P_global_register;
        P_stack_poison; P_stack_unpoison ]
  in
  let work () =
    let inst = Replay.boot fw (Replay.Embsan_cfg Embsan.all_sanitizers) in
    let o = Replay.replay inst benign in
    let rt = Option.get inst.Replay.rt in
    ( o.Replay.o_crash = None,
      o.Replay.o_insns > 0,
      List.map (Embsan_core.Runtime.plan_names rt) points )
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  let plans =
    List.mapi
      (fun i d ->
        let no_crash, ran, plans = Domain.join d in
        Alcotest.(check bool)
          (Printf.sprintf "domain %d no crash" i) true no_crash;
        Alcotest.(check bool) (Printf.sprintf "domain %d executed" i) true ran;
        plans)
      domains
  in
  (* every domain's runtime compiled the same plan names per point *)
  Alcotest.(check (list string)) "load plan" [ "kasan"; "kcsan" ]
    (List.hd (List.hd plans));
  List.iteri
    (fun i p ->
      Alcotest.(check (list (list string)))
        (Printf.sprintf "domain %d plans" i) (List.hd plans) p)
    plans

(* --- jobs=1 reduces to Campaign.run ---------------------------------------------- *)

let found_key (f : Campaign.found) = (f.f_bug.b_id, f.f_exec, f.f_confirmed)

let result_key (r : Campaign.result) =
  ( List.sort compare (List.map found_key r.r_found),
    r.r_execs,
    r.r_crashes,
    r.r_corpus,
    r.r_coverage,
    r.r_insns,
    r.r_unmatched )

let jobs1_equals_campaign_run fw () =
  let cfg =
    { (Campaign.default_config fw) with max_execs = 500; seed = 3 }
  in
  let direct = Campaign.run cfg in
  let orch =
    Orch.run { (Orch.default_config ~epoch_execs:64 fw) with campaign = cfg }
  in
  Alcotest.(check bool)
    "orchestrated jobs=1 result equals Campaign.run" true
    (result_key direct = result_key orch.o_campaign);
  Alcotest.(check int) "one epoch set" 1 (Array.length orch.o_workers)

(* --- multi-worker determinism ----------------------------------------------------- *)

let orch_key (r : Orch.result) =
  ( result_key r.o_campaign,
    r.o_epochs,
    Array.to_list
      (Array.map (fun (w : Orch.worker_stat) -> (w.w_id, w.w_execs, w.w_crashes, w.w_corpus, w.w_coverage)) r.o_workers) )

let jobs4_stable_across_repetitions () =
  let fw = small_fw () in
  let run () =
    let cfg =
      {
        (Orch.default_config ~jobs:4 ~epoch_execs:50 fw) with
        campaign =
          { (Campaign.default_config fw) with max_execs = 250; seed = 7 };
        jobs = 4;
      }
    in
    orch_key (Orch.run cfg)
  in
  let a = run () and b = run () in
  Alcotest.(check bool)
    "jobs=4 merged result stable across two repetitions" true (a = b)

(* Schedule fuzzing makes the interleaving part of the input: the
   orchestrated single-worker campaign must still be bit-identical to
   Campaign.run, and the multi-worker merge must stay deterministic,
   with schedule seeds riding the frontier exchange.  Uses the
   race-suite firmware so schedules actually matter (a worker hart and
   schedule-dependent races), not just get drawn. *)
let jobs1_sched_equals_campaign_run () =
  let fw = Firmware_db.race_suite_fw in
  let cfg =
    {
      (Campaign.default_config fw) with
      sanitizers = [ "ftrace" ];
      max_execs = 400;
      seed = 3;
      stop_when_all_found = false;
      use_sched = true;
    }
  in
  let direct = Campaign.run cfg in
  let orch =
    Orch.run { (Orch.default_config ~epoch_execs:64 fw) with campaign = cfg }
  in
  Alcotest.(check bool)
    "orchestrated jobs=1 sched result equals Campaign.run" true
    (result_key direct = result_key orch.o_campaign);
  (* the schedule axis was actually exercised: some reproducer or corpus
     trajectory needed a schedule seed *)
  Alcotest.(check bool) "campaign found races" true (direct.r_found <> [])

let jobs4_sched_stable_across_repetitions () =
  let fw = Firmware_db.race_suite_fw in
  let run () =
    let cfg =
      {
        (Orch.default_config ~jobs:4 ~epoch_execs:50 fw) with
        campaign =
          {
            (Campaign.default_config fw) with
            sanitizers = [ "ftrace" ];
            max_execs = 250;
            seed = 7;
            stop_when_all_found = false;
            use_sched = true;
          };
        jobs = 4;
      }
    in
    orch_key (Orch.run cfg)
  in
  let a = run () and b = run () in
  Alcotest.(check bool)
    "jobs=4 sched-fuzzing result stable across two repetitions" true (a = b)

(* Cmplog adds per-worker mutable state (compare windows, operand
   dictionary, counterpart map) to the sharded engines; this pins that an
   orchestrated cmplog campaign is still bit-identical across
   repetitions.  Uses the magic-gate firmware so the dictionary path is
   actually exercised, not just enabled. *)
let jobs2_cmplog_stable_across_repetitions () =
  let fw = Firmware_db.cmplog_gate_fw in
  let run () =
    let cfg =
      {
        (Orch.default_config ~jobs:2 ~epoch_execs:50 fw) with
        campaign =
          {
            (Campaign.default_config fw) with
            max_execs = 300;
            seed = 13;
            use_cmplog = true;
          };
        jobs = 2;
      }
    in
    orch_key (Orch.run cfg)
  in
  let a = run () and b = run () in
  Alcotest.(check bool)
    "jobs=2 cmplog result stable across two repetitions" true (a = b)

let distinct_shards_diverge () =
  (* shards fuzz different streams: with 2 workers their exec traces must
     not be mirror images (their per-worker corpora differ) *)
  let fw = small_fw () in
  let cfg =
    {
      (Orch.default_config ~jobs:2 ~epoch_execs:50 fw) with
      campaign = { (Campaign.default_config fw) with max_execs = 200; seed = 5;
                   stop_when_all_found = false };
      jobs = 2;
    }
  in
  let r = Orch.run cfg in
  let w0 = r.o_workers.(0) and w1 = r.o_workers.(1) in
  Alcotest.(check bool) "workers did full budget" true
    (w0.w_execs = 200 && w1.w_execs = 200);
  Alcotest.(check bool) "shard streams diverge" true
    ((w0.w_coverage, w0.w_crashes, w0.w_corpus)
    <> (w1.w_coverage, w1.w_crashes, w1.w_corpus)
    || r.o_campaign.r_coverage > max w0.w_coverage w1.w_coverage)

(* --- frontier exchange and global triage ------------------------------------------ *)

let orchestrated_campaign_finds_bugs () =
  let fw = small_fw () in
  let cfg =
    {
      (Orch.default_config ~jobs:2 ~epoch_execs:100 fw) with
      campaign = { (Campaign.default_config fw) with max_execs = 1500; seed = 3 };
      jobs = 2;
    }
  in
  let r = Orch.run cfg in
  Alcotest.(check int) "both bugs found" 2
    (List.length r.o_campaign.r_found);
  (* global dedup: each bug id appears exactly once *)
  let ids =
    List.map (fun (f : Campaign.found) -> f.f_bug.b_id) r.o_campaign.r_found
  in
  Alcotest.(check bool) "ids unique" true
    (List.sort_uniq compare ids = List.sort compare ids);
  (* the merged corpus is the global frontier: it covers at least what
     any single worker covers *)
  Array.iter
    (fun (w : Orch.worker_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "merged coverage >= worker %d's" w.w_id)
        true
        (r.o_campaign.r_coverage >= w.w_coverage))
    r.o_workers

let telemetry_emitted () =
  let fw = closed_fw () in
  let seen = ref [] in
  let cfg =
    {
      (Orch.default_config ~jobs:2 ~epoch_execs:50 fw) with
      campaign =
        { (Campaign.default_config fw) with max_execs = 150; seed = 5;
          stop_when_all_found = false };
      jobs = 2;
      on_telemetry = Some (fun t -> seen := t :: !seen);
    }
  in
  let r = Orch.run cfg in
  Alcotest.(check int) "one telemetry sample per epoch" r.o_epochs
    (List.length !seen);
  let final = List.hd !seen in
  Alcotest.(check int) "total execs" 300 final.t_execs;
  Alcotest.(check int) "workers" 2 (Array.length final.t_workers);
  Alcotest.(check bool) "epochs increase" true
    (List.for_all2
       (fun (a : Orch.telemetry) (b : Orch.telemetry) -> a.t_epoch > b.t_epoch)
       !seen
       (List.tl !seen @ [ { final with t_epoch = 0 } ]));
  Alcotest.(check bool) "cpu time accounted" true
    (Array.for_all (fun (w : Orch.worker_stat) -> w.w_cpu_s > 0.) final.t_workers)

let rejects_bad_config () =
  let fw = small_fw () in
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Orch.run: jobs must be in 1..64") (fun () ->
      ignore (Orch.run { (Orch.default_config fw) with jobs = 0 }));
  Alcotest.check_raises "epoch=0"
    (Invalid_argument "Orch.run: epoch_execs must be >= 1") (fun () ->
      ignore (Orch.run { (Orch.default_config fw) with epoch_execs = 0 }))

let () =
  Alcotest.run "embsan_orch"
    [
      ( "domain-safety",
        [
          Alcotest.test_case "concurrent Runtime.attach from 4 domains" `Quick
            concurrent_attach_race_free;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 equals Campaign.run (RTOS image)" `Slow
            (jobs1_equals_campaign_run (small_fw ()));
          Alcotest.test_case "jobs=1 equals Campaign.run (closed VxWorks image)"
            `Slow
            (jobs1_equals_campaign_run (closed_fw ()));
          Alcotest.test_case "jobs=4 stable across repetitions" `Slow
            jobs4_stable_across_repetitions;
          Alcotest.test_case "jobs=1 equals Campaign.run (schedule fuzzing)"
            `Slow jobs1_sched_equals_campaign_run;
          Alcotest.test_case "jobs=4 stable with schedule fuzzing" `Slow
            jobs4_sched_stable_across_repetitions;
          Alcotest.test_case "jobs=2 cmplog stable across repetitions" `Slow
            jobs2_cmplog_stable_across_repetitions;
          Alcotest.test_case "shard streams diverge" `Slow
            distinct_shards_diverge;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "orchestrated campaign finds and dedups bugs"
            `Slow orchestrated_campaign_finds_bugs;
          Alcotest.test_case "telemetry" `Slow telemetry_emitted;
          Alcotest.test_case "config validation" `Quick rejects_bad_config;
        ] );
    ]
