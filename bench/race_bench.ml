(* Race-detection bench: writes BENCH_race.json (schema in README.md).

   Three axes, all on the race-suite firmware (three seeded data races
   between the syscall hart and a worker hart, plus synchronized
   counterparts that must stay silent — lib/guest/race_suite.ml):

   1. discovery curve: executions until first detection per seeded race,
      under ftrace with fuzzed schedules;
   2. detector A/B: KCSAN's sampled watchpoints vs ftrace's exhaustive
      happens-before tracking, same budget, both under fuzzed schedules;
   3. schedule A/B: fixed round-robin vs fuzzer-chosen interleavings,
      both under ftrace alone.  KCSAN is deliberately excluded from this
      axis: its watchpoint stall suspends the watched hart and is itself
      a schedule perturbation, which would contaminate the fixed arm.

   Ratio guards (process exits 1 when violated):
   - fuzzed schedules must find strictly MORE of the seeded races than
     the fixed rotation on every seed — the suite's starvation-window
     race is reachable only under interleavings round-robin never
     produces;
   - ftrace must find at least as many seeded races as KCSAN. *)

module Campaign = Embsan_fuzz.Campaign
module Embsan = Embsan_core.Embsan
module Firmware_db = Embsan_guest.Firmware_db

let execs_per_run = 300
let seeds = [ 1; 2; 3 ]

type sample = {
  s_seed : int;
  s_found : (string * int * int option) list; (* bug id, exec, sched seed *)
  s_execs : int;
}

let run_one ~sanitizers ~sched seed =
  let fw = Firmware_db.race_suite_fw in
  let cfg =
    {
      (Campaign.default_config fw) with
      sanitizers;
      max_execs = execs_per_run;
      seed;
      stop_when_all_found = false;
      use_sched = sched;
    }
  in
  let r = Campaign.run cfg in
  let found =
    List.sort_uniq compare
      (List.map
         (fun (f : Campaign.found) -> (f.f_bug.Embsan_guest.Defs.b_id, f.f_exec, f.f_sched))
         r.Campaign.r_found)
  in
  (* one row per bug: first detection only *)
  let seen = Hashtbl.create 4 in
  let found =
    List.filter
      (fun (id, _, _) ->
        if Hashtbl.mem seen id then false
        else begin
          Hashtbl.add seen id ();
          true
        end)
      (List.sort (fun (_, a, _) (_, b, _) -> compare a b) found)
  in
  { s_seed = seed; s_found = found; s_execs = r.Campaign.r_execs }

let races s = List.length s.s_found

let sample_json s =
  let row (id, exec, sched) =
    Printf.sprintf {|{ "bug": "%s", "exec": %d, "sched_seed": %s }|} id exec
      (match sched with None -> "null" | Some n -> string_of_int n)
  in
  Printf.sprintf {|{ "seed": %d, "execs": %d, "found": [%s] }|} s.s_seed
    s.s_execs
    (String.concat ", " (List.map row s.s_found))

let pp_arm name samples =
  Fmt.pr "  %-28s %s@." name
    (String.concat "  "
       (List.map
          (fun s -> Printf.sprintf "seed %d: %d/3" s.s_seed (races s))
          samples))

let run () =
  Fmt.pr "@.Race detection: ftrace + schedule fuzzing (race-suite, %d \
          execs/run)@."
    execs_per_run;
  let arm name ~sanitizers ~sched =
    let samples = List.map (run_one ~sanitizers ~sched) seeds in
    pp_arm name samples;
    samples
  in
  let fixed_ftrace =
    arm "ftrace, fixed round-robin" ~sanitizers:[ "ftrace" ] ~sched:false
  in
  let fuzzed_ftrace =
    arm "ftrace, fuzzed schedules" ~sanitizers:[ "ftrace" ] ~sched:true
  in
  let fuzzed_kcsan =
    arm "kcsan, fuzzed schedules" ~sanitizers:Embsan.kcsan_only ~sched:true
  in
  let guard_sched =
    List.for_all2 (fun fz fx -> races fz > races fx) fuzzed_ftrace fixed_ftrace
  in
  let guard_detector =
    List.for_all2 (fun ft kc -> races ft >= races kc) fuzzed_ftrace fuzzed_kcsan
  in
  Fmt.pr "  guard fuzzed > fixed   : %s@."
    (if guard_sched then "ok" else "VIOLATED");
  Fmt.pr "  guard ftrace >= kcsan  : %s@."
    (if guard_detector then "ok" else "VIOLATED");
  let arm_json samples =
    String.concat ",\n      " (List.map sample_json samples)
  in
  let json =
    Printf.sprintf
      {|{
  "schema": "embsan-race-bench/1",
  "firmware": "race-suite",
  "seeded_races": 3,
  "execs_per_run": %d,
  "seeds": [%s],
  "schedule_ab": {
    "sanitizer": "ftrace",
    "fixed": [
      %s
    ],
    "fuzzed": [
      %s
    ]
  },
  "detector_ab": {
    "schedules": "fuzzed",
    "ftrace": [
      %s
    ],
    "kcsan": [
      %s
    ]
  },
  "guards": {
    "fuzzed_schedules_find_strictly_more": %b,
    "ftrace_finds_at_least_kcsan": %b
  }
}
|}
      execs_per_run
      (String.concat ", " (List.map string_of_int seeds))
      (arm_json fixed_ftrace) (arm_json fuzzed_ftrace) (arm_json fuzzed_ftrace)
      (arm_json fuzzed_kcsan) guard_sched guard_detector
  in
  let oc = open_out "BENCH_race.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "  wrote BENCH_race.json@.";
  if not (guard_sched && guard_detector) then begin
    Fmt.pr "  RATIO GUARD VIOLATED@.";
    exit 1
  end
