.PHONY: all build test bench-smoke bench-record check check-diff check-orch \
	check-race check-rehost perf-check clean

# The checks run the bench binary from a scratch directory, so every
# BENCH_*.json it writes lands there and `make check` leaves the tree
# clean; `make bench-record` rewrites the committed records on purpose.
BENCH = $(CURDIR)/_build/default/bench/main.exe
BENCH_DIR = _build/bench-check

all: build

build:
	dune build

test:
	dune runtest

# Fast end-to-end smoke of the bench pipeline: wall-clock micro-benchmarks,
# the execution-engine throughput bench (BENCH_emu.json), the snapshot
# bench (BENCH_snap.json; fails unless each restore reverts exactly the
# pages touched and each post-boot capture holds at most 2% of RAM's pages
# privately) and the orchestrator sweep, all written under $(BENCH_DIR).
bench-smoke: build
	mkdir -p $(BENCH_DIR)
	cd $(BENCH_DIR) && $(BENCH) bechamel
	cd $(BENCH_DIR) && $(BENCH) emu
	cd $(BENCH_DIR) && $(BENCH) snap
	cd $(BENCH_DIR) && $(BENCH) orch

# Regenerate the committed BENCH_*.json records in the source tree.
bench-record: build
	$(BENCH) emu snap orch race rehost

# Every differential oracle (the engine oracles plus mode-agreement; see
# DESIGN.md "Correctness harness") once, on the same 250 seeded programs
# per arch flavor.  Exits non-zero on any divergence.  One oracle alone:
# `embsan_cli check --oracle NAME --seed 1 --execs 250`; the default
# --execs 1000 is the full campaign.
check-diff: build
	./_build/default/bin/embsan_cli.exe check --seed 1 --execs 250

# Race-detection bench with ratio guards: on the race-suite firmware,
# fuzzed schedules must find strictly more of the seeded races than the
# fixed round-robin rotation, and ftrace's happens-before tracking must
# find at least as many as KCSAN's sampled watchpoints.  Writes
# BENCH_race.json under $(BENCH_DIR); exits non-zero on a guard violation,
# or when the record, which is deterministic, differs from the committed
# one.
check-race: build
	mkdir -p $(BENCH_DIR)
	cd $(BENCH_DIR) && $(BENCH) race
	cmp $(BENCH_DIR)/BENCH_race.json BENCH_race.json

# Orchestrator smoke: a short 2-worker campaign over one RTOS image with
# frontier exchange and per-epoch telemetry.  Exercises the multi-domain
# path end-to-end (worker boot, epoch barrier, merge, global triage).
check-orch: build
	./_build/default/bin/embsan_cli.exe campaign OpenHarmony-stm32f407 \
	  --jobs 2 --execs 400 --seed 3 --exchange 100 --telemetry

# Rehosting bench with its A/B and throughput ratio guards (writes
# BENCH_rehost.json under $(BENCH_DIR); exits non-zero on a violation).
# Its oracle, rehost-transparency, runs in check-diff.
check-rehost: build
	mkdir -p $(BENCH_DIR)
	cd $(BENCH_DIR) && $(BENCH) rehost

# The fuzzing benchmark's output checks on its two workloads (seed 1,
# 1 s budget, so each runs its minimum of two passes over 16 campaigns):
# every run of one campaign seed must print the same deterministic counts
# and every confirmed reproducer must be re-detected on a fresh instance.
# The traced runs then check what every per-layer figure relies on: the
# traced loop reproduces the untraced counts, and the traced layer spans
# cover at least 95% of the loop's wall time (trace.span_share).  Both
# workloads are traced: EmbSan-D probe sites on linux-kasan-d, EmbSan-C
# callout trap sites on rehost-irq.
# Exits non-zero on a failed check; the timings it prints are not gated.
perf-check:
	bash perfbench/run.sh --workload linux-kasan-d --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload rehost-irq --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload linux-kasan-d --seed 1 --seconds 1 --trace 1
	bash perfbench/run.sh --workload rehost-irq --seed 1 --seconds 1 --trace 1

check: build test bench-smoke check-diff check-race check-orch check-rehost

clean:
	dune clean
