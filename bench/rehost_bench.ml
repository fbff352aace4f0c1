(* Model-free rehosting bench: writes BENCH_rehost.json (schema in
   README.md).

   Two axes, both on the mmio-suite firmware (a UART/DMA-ish driver with
   NO hand-written device model — every register read is served by the
   rehosting layer, and its seeded use-after-free sits behind an
   interrupt handler that only runs when the controller injects —
   lib/guest/mmio_suite.ml):

   1. injection A/B: campaigns with rehosting on, interrupt injection on
      vs off, same budget and seeds.  The IRQ-gated UAF must be found
      AND confirmed with injection on every seed, and never without —
      the property that makes fuzzer-scheduled interrupts load-bearing
      rather than decorative;
   2. throughput: execs/s of the rehosted campaign (which restores the
      post-boot snapshot before every exec to keep reproducers
      self-contained) vs a modeled-device campaign on the stm32f407
      image, same budget.  The per-exec restore moves only what the exec
      wrote and keeps the translation cache, so the guard holds the
      rehosted campaign to half the modeled one's rate.

   Ratio guards (process exits 1 when violated):
   - the UAF is found+confirmed with injection on every seed;
   - it is never found without injection on any seed;
   - rehosted throughput >= 0.5x the modeled-device campaign's. *)

module Campaign = Embsan_fuzz.Campaign
module Embsan = Embsan_core.Embsan
module Firmware_db = Embsan_guest.Firmware_db

let seeds = [ 1; 2; 3 ]
let find_budget = 1000
let rate_execs = 400
let min_rate_ratio = 0.5

type sample = {
  s_seed : int;
  s_exec : int option; (* exec of first confirmed UAF detection *)
  s_rehost : int option; (* the reproducer's minimized rehost seed *)
  s_execs : int;
}

let run_arm ~irq seed =
  let cfg =
    {
      (Campaign.default_config Firmware_db.mmio_suite_fw) with
      sanitizers = Embsan.kasan_only;
      max_execs = find_budget;
      seed;
      use_rehost = true;
      use_irq = irq;
    }
  in
  let r = Campaign.run cfg in
  let uaf =
    List.find_opt
      (fun (f : Campaign.found) ->
        f.f_bug.Embsan_guest.Defs.b_id = "mmio-suite/irq_uaf" && f.f_confirmed)
      r.Campaign.r_found
  in
  {
    s_seed = seed;
    s_exec = Option.map (fun (f : Campaign.found) -> f.f_exec) uaf;
    s_rehost = Option.bind uaf (fun (f : Campaign.found) -> f.f_rehost);
    s_execs = r.Campaign.r_execs;
  }

let found s = s.s_exec <> None

let sample_json s =
  let opt = function None -> "null" | Some n -> string_of_int n in
  Printf.sprintf
    {|{ "seed": %d, "execs": %d, "found_exec": %s, "rehost_seed": %s }|}
    s.s_seed s.s_execs (opt s.s_exec) (opt s.s_rehost)

let pp_arm name samples =
  Fmt.pr "  %-26s %s@." name
    (String.concat "  "
       (List.map
          (fun s ->
            Printf.sprintf "seed %d: %s" s.s_seed
              (match s.s_exec with
              | Some e -> Printf.sprintf "found@%d" e
              | None -> "silent"))
          samples))

(* execs/s over a fixed budget, stop_when_all_found off so both arms do
   the same amount of work *)
let rate (cfg : Campaign.config) =
  let cfg = { cfg with max_execs = rate_execs; stop_when_all_found = false } in
  let t0 = Unix.gettimeofday () in
  let r = Campaign.run cfg in
  float_of_int r.Campaign.r_execs /. (Unix.gettimeofday () -. t0)

let run () =
  Fmt.pr "@.Model-free rehosting: injection A/B + throughput (mmio-suite, \
          %d execs/run)@."
    find_budget;
  let with_irq = List.map (run_arm ~irq:true) seeds in
  pp_arm "rehost + injection" with_irq;
  let without_irq = List.map (run_arm ~irq:false) seeds in
  pp_arm "rehost, no injection" without_irq;
  let guard_with = List.for_all found with_irq in
  let guard_without = List.for_all (fun s -> not (found s)) without_irq in
  let rehost_rate =
    rate
      {
        (Campaign.default_config Firmware_db.mmio_suite_fw) with
        sanitizers = Embsan.kasan_only;
        seed = 1;
        use_rehost = true;
        use_irq = true;
      }
  in
  let modeled_rate =
    rate
      {
        (Campaign.default_config
           (Option.get (Firmware_db.find "OpenHarmony-stm32f407")))
        with
        sanitizers = Embsan.kasan_only;
        seed = 1;
      }
  in
  let ratio = rehost_rate /. modeled_rate in
  let guard_rate = ratio >= min_rate_ratio in
  Fmt.pr "  guard found with injection on every seed : %s@."
    (if guard_with then "ok" else "VIOLATED");
  Fmt.pr "  guard never found without injection      : %s@."
    (if guard_without then "ok" else "VIOLATED");
  Fmt.pr
    "  throughput: rehosted %.0f execs/s, modeled %.0f execs/s (ratio %.3f, \
     floor %.3f): %s@."
    rehost_rate modeled_rate ratio min_rate_ratio
    (if guard_rate then "ok" else "VIOLATED");
  let arm_json samples =
    String.concat ",\n      " (List.map sample_json samples)
  in
  let json =
    Printf.sprintf
      {|{
  "schema": "embsan-rehost-bench/1",
  "firmware": "mmio-suite",
  "bug": "mmio-suite/irq_uaf",
  "execs_per_run": %d,
  "seeds": [%s],
  "injection_ab": {
    "with_injection": [
      %s
    ],
    "without_injection": [
      %s
    ]
  },
  "throughput": {
    "execs": %d,
    "rehosted_execs_per_s": %.1f,
    "modeled_execs_per_s": %.1f,
    "ratio": %.4f,
    "min_ratio": %.4f
  },
  "guards": {
    "found_with_injection_on_every_seed": %b,
    "never_found_without_injection": %b,
    "throughput_within_ratio": %b
  }
}
|}
      find_budget
      (String.concat ", " (List.map string_of_int seeds))
      (arm_json with_irq) (arm_json without_irq) rate_execs rehost_rate
      modeled_rate ratio min_rate_ratio guard_with guard_without guard_rate
  in
  let oc = open_out "BENCH_rehost.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "  wrote BENCH_rehost.json@.";
  if not (guard_with && guard_without && guard_rate) then begin
    Fmt.pr "  RATIO GUARD VIOLATED@.";
    exit 1
  end
