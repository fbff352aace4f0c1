(* The benchmark's workloads: one fuzzing configuration each, run as
   [campaigns] single-domain campaigns of [budget] execs whose campaign
   seeds derive from the benchmark's --seed.  Several campaigns per run
   average out how much one campaign seed moves coverage, confirmed bugs
   and the program mix, so a run's figures repeat across seeds. *)

module Campaign = Embsan_fuzz.Campaign
module Rng = Embsan_fuzz.Rng
module Embsan = Embsan_core.Embsan
module Firmware_db = Embsan_guest.Firmware_db

type t = {
  name : string;
  fw : Firmware_db.firmware;
  sanitizers : Embsan.sanitizers;
  rehost : bool;  (** model-free MMIO rehosting with IRQ injection *)
  budget : int;  (** execs per campaign *)
}

let campaigns = 16

let firmware name =
  match Firmware_db.find name with
  | Some fw -> fw
  | None -> invalid_arg ("perfbench: unknown firmware " ^ name)

(* linux-kasan-d: the paper's main path — EmbSan-D probes with host KASAN
   on Embedded Linux, Syzkaller kcov coverage.  No crashes and a warm
   translation cache, so the coverage signature and the probed replay
   carry the loop.
   rehost-irq: mmio-suite under the rehosting layer with IRQ injection —
   the only configuration that restores the post-boot snapshot (and so
   flushes the translation cache) before every exec. *)
let all =
  [
    {
      name = "linux-kasan-d";
      fw = firmware "OpenWRT-bcm63xx";
      sanitizers = Embsan.kasan_only;
      rehost = false;
      budget = 1500;
    };
    {
      name = "rehost-irq";
      fw = Firmware_db.mmio_suite_fw;
      sanitizers = Embsan.kasan_only;
      rehost = true;
      budget = 1500;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Campaign [k] of a run with benchmark seed [seed]. *)
let campaign_seed ~seed k = Rng.split_seed ~seed ~shard:k land 0x3FFF_FFFF

let config w ~seed : Campaign.config =
  {
    (Campaign.default_config w.fw) with
    sanitizers = w.sanitizers;
    max_execs = w.budget;
    seed;
    stop_when_all_found = false;
    use_rehost = w.rehost;
    use_irq = w.rehost;
  }

let uses_kcov w = w.fw.fw_fuzzer = Firmware_db.Syzkaller

(* Replay's per-call instruction budget: an exec that retires this many
   instructions ran one call into it (a budget hang). *)
let call_budget = 10_000_000
