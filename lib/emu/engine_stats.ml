(* Execution-engine counters: translation-cache behaviour and block
   chaining.  One instance lives in each {!Machine.t};
   the bench pipeline serializes them into BENCH_emu.json so engine
   regressions show up as a trajectory, not an anecdote. *)

type t = {
  mutable translations : int;  (* blocks translated *)
  mutable cache_hits : int;  (* hashtable lookups that found the block *)
  mutable cache_misses : int;
      (* lookups that found no block and translated one *)
  mutable chained : int;  (* control transfers served by a chain link *)
  (* [flushes_load] counts the unavoidable flush on [load_image];
     [flushes_invalidate] counts everything else ([flush_tcg],
     [set_engine], snapshot restore).  Probe subscribe/unsubscribe and
     cmplog toggles patch sites in place and count as neither --
     "~0 invalidation flushes under a probe-toggle storm" is the pinned
     property. *)
  mutable flushes_load : int;
  mutable flushes_invalidate : int;
  (* always 0 and not rendered: kept only because the fuzzing
     benchmark's traced loop (perfbench/traced.ml) reads it, until that
     loop's next change *)
  mutable super_transfers : int;
  (* model-free rehosting layer (lib/rehost): unmapped-MMIO reads served
     from the fuzz-input stream, and interrupts vectored at fuzzer-chosen
     retirement points. *)
  mutable rehost_reads : int;
  mutable irq_injected : int;
}

let create () =
  {
    translations = 0;
    cache_hits = 0;
    cache_misses = 0;
    chained = 0;
    flushes_load = 0;
    flushes_invalidate = 0;
    super_transfers = 0;
    rehost_reads = 0;
    irq_injected = 0;
  }

let reset t =
  t.translations <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.chained <- 0;
  t.flushes_load <- 0;
  t.flushes_invalidate <- 0;
  t.super_transfers <- 0;
  t.rehost_reads <- 0;
  t.irq_injected <- 0

(** Total flushes of either kind (the pre-split [flushes] counter). *)
let flushes t = t.flushes_load + t.flushes_invalidate

(** Fraction of non-chained block lookups served from the cache. *)
let hit_rate t =
  let total = t.cache_hits + t.cache_misses in
  if total = 0 then 0.0 else float_of_int t.cache_hits /. float_of_int total

(** Fraction of all block-to-block transfers served by a chain link. *)
let chain_rate t =
  let total = t.cache_hits + t.cache_misses + t.chained in
  if total = 0 then 0.0 else float_of_int t.chained /. float_of_int total

let pp fmt t =
  Fmt.pf fmt
    "translations=%d cache_hits=%d cache_misses=%d chained=%d \
     flushes_load=%d flushes_invalidate=%d rehost_reads=%d irq_injected=%d \
     hit_rate=%.3f chain_rate=%.3f"
    t.translations t.cache_hits t.cache_misses t.chained t.flushes_load
    t.flushes_invalidate t.rehost_reads t.irq_injected (hit_rate t)
    (chain_rate t)

(* One versioned block: every raw counter (chaining, split flushes,
   rehosting) plus the derived rates, tagged so downstream consumers of
   BENCH_emu.json fail loudly on a field change instead of silently
   reading zeros.  /2 added rehost_reads + irq_injected; /3 dropped the
   superblock counters. *)
let schema = "embsan-engine-stats/3"

(** Render as a JSON object (used by the bench pipeline). *)
let to_json t =
  Printf.sprintf
    "{\"schema\": \"%s\", \"translations\": %d, \"cache_hits\": %d, \
     \"cache_misses\": %d, \"chained_transfers\": %d, \"flushes_load\": %d, \
     \"flushes_invalidate\": %d, \"rehost_reads\": %d, \"irq_injected\": %d, \
     \"hit_rate\": %.4f, \"chain_rate\": %.4f}"
    schema t.translations t.cache_hits t.cache_misses t.chained
    t.flushes_load t.flushes_invalidate t.rehost_reads t.irq_injected
    (hit_rate t) (chain_rate t)
