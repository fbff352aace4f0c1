(* Orchestrator scaling bench: writes BENCH_orch.json (schema in
   README.md).

   Runs the same seeded, fixed-budget campaign (stop_when_all_found off,
   so every jobs level does identical per-worker work) at jobs = 1, 2, 4
   and reports two throughput figures per level:

   - execs_per_sec_wall: end-to-end wall-clock rate — honest but bound
     by how many hardware cores the host actually has;
   - aggregate_execs_per_sec: the sum of per-worker rates over each
     worker domain's own CPU time (CLOCK_THREAD_CPUTIME_ID), i.e. the
     fuzzing-literature "sum of per-core execs/sec".  This is the
     scaling capacity of the orchestrator itself, independent of host
     core count; on a host with >= jobs free cores the two converge.

   The headline speedup is computed on the aggregate figure;
   host_cores and per-run utilization (cpu/wall per worker) are in the
   JSON so wall-clock-limited environments are legible.  The bench also
   re-runs the jobs=1 configuration through Campaign.run and records
   whether the orchestrated unique-bug set matches — the determinism
   contract's acceptance check; a mismatch exits 1 after writing the
   JSON. *)

module Orch = Embsan_orch.Orch
module Campaign = Embsan_fuzz.Campaign
module Firmware_db = Embsan_guest.Firmware_db

let fw_name = "OpenHarmony-stm32f407" (* LiteOS RTOS image, cheap to boot *)
let default_execs = 800 (* per worker *)
let seed = 1
let epoch_execs = 100

type sample = {
  s_jobs : int;
  s_execs : int;
  s_wall_s : float;
  s_workers : Orch.worker_stat array;
  s_aggregate : float;
  s_unique_bugs : int;
  s_coverage : int;
  s_bug_ids : string list;
}

let campaign_cfg fw execs =
  {
    (Campaign.default_config fw) with
    max_execs = execs;
    seed;
    stop_when_all_found = false;
  }

let run_jobs fw execs jobs =
  let cfg =
    {
      (Orch.default_config ~jobs ~epoch_execs fw) with
      campaign = campaign_cfg fw execs;
      jobs;
    }
  in
  let r = Orch.run cfg in
  {
    s_jobs = jobs;
    s_execs = r.o_campaign.r_execs;
    s_wall_s = r.o_wall_s;
    s_workers = r.o_workers;
    s_aggregate = r.o_aggregate_rate;
    s_unique_bugs = List.length r.o_campaign.r_found;
    s_coverage = r.o_campaign.r_coverage;
    s_bug_ids =
      List.sort compare
        (List.map
           (fun (f : Campaign.found) -> f.f_bug.Embsan_guest.Defs.b_id)
           r.o_campaign.r_found);
  }

let worker_json (w : Orch.worker_stat) =
  Printf.sprintf
    {|{ "id": %d, "execs": %d, "crashes": %d, "corpus": %d, "coverage": %d, "cpu_secs": %.3f, "execs_per_sec": %.1f }|}
    w.w_id w.w_execs w.w_crashes w.w_corpus w.w_coverage w.w_cpu_s w.w_rate

let sample_json base s =
  let utilization =
    if s.s_wall_s > 0. then
      Array.fold_left (fun a (w : Orch.worker_stat) -> a +. w.w_cpu_s) 0.
        s.s_workers
      /. (s.s_wall_s *. float_of_int s.s_jobs)
    else 0.
  in
  Printf.sprintf
    {|{
      "jobs": %d,
      "execs": %d,
      "wall_secs": %.3f,
      "execs_per_sec_wall": %.1f,
      "aggregate_execs_per_sec": %.1f,
      "speedup_vs_jobs1": %.2f,
      "utilization": %.3f,
      "unique_bugs": %d,
      "merged_coverage": %d,
      "workers": [
        %s
      ]
    }|}
    s.s_jobs s.s_execs s.s_wall_s
    (if s.s_wall_s > 0. then float_of_int s.s_execs /. s.s_wall_s else 0.)
    s.s_aggregate
    (if base > 0. then s.s_aggregate /. base else 0.)
    utilization s.s_unique_bugs s.s_coverage
    (String.concat ",\n        "
       (Array.to_list (Array.map worker_json s.s_workers)))

let run ?(execs = default_execs) () =
  let fw = Option.get (Firmware_db.find fw_name) in
  Fmt.pr "@.Orchestrator scaling (%s, %d execs/worker, seed %d)@." fw_name
    execs seed;
  let sweep = List.map (run_jobs fw execs) [ 1; 2; 4 ] in
  let base =
    match sweep with s :: _ -> s.s_aggregate | [] -> assert false
  in
  List.iter
    (fun s ->
      Fmt.pr
        "  jobs %d: %5d execs in %6.2fs wall  (%7.1f e/s wall, %7.1f e/s \
         aggregate, %.2fx)@."
        s.s_jobs s.s_execs s.s_wall_s
        (float_of_int s.s_execs /. s.s_wall_s)
        s.s_aggregate
        (s.s_aggregate /. base))
    sweep;
  (* determinism acceptance: the orchestrated jobs=1 unique-bug set must
     equal Campaign.run's for the same config *)
  let direct = Campaign.run (campaign_cfg fw execs) in
  let direct_ids =
    List.sort compare
      (List.map
         (fun (f : Campaign.found) -> f.f_bug.Embsan_guest.Defs.b_id)
         direct.r_found)
  in
  let jobs1 = List.hd sweep in
  let equal = direct_ids = jobs1.s_bug_ids in
  Fmt.pr "  jobs=1 unique-bug set %s Campaign.run's (%d bugs)@."
    (if equal then "equals" else "DIFFERS FROM")
    (List.length direct_ids);
  let json =
    Printf.sprintf
      {|{
  "schema": "embsan-orch-bench/1",
  "firmware": "%s",
  "execs_per_worker": %d,
  "seed": %d,
  "epoch_execs": %d,
  "host_cores": %d,
  "thread_cputime": %b,
  "sweep": [
    %s
  ],
  "jobs1_equals_campaign_run": %b
}
|}
      fw_name execs seed epoch_execs
      (Domain.recommended_domain_count ())
      (Embsan_orch.Cputime.available ())
      (String.concat ",\n    " (List.map (sample_json base) sweep))
      equal
  in
  let oc = open_out "BENCH_orch.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "  wrote BENCH_orch.json@.";
  if not equal then begin
    Fmt.pr "  DETERMINISM CHECK FAILED@.";
    exit 1
  end
