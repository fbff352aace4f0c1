.PHONY: all build test bench-smoke check check-all check-diff check-snap \
	check-modes check-orch check-toggle check-sched check-race \
	check-rehost perf-check clean

all: build

build:
	dune build

test:
	dune runtest

# Fast end-to-end smoke of the bench pipeline: wall-clock micro-benchmarks
# plus the execution-engine throughput bench (writes BENCH_emu.json).
bench-smoke: build
	./_build/default/bench/main.exe bechamel --execs 200
	./_build/default/bench/main.exe emu
	./_build/default/bench/main.exe orch

# Bounded differential-oracle run over the dual execution engines (fixed
# seed, small exec budget): fast-vs-baseline, probe transparency,
# flush-anytime, subscription churn and toggle storm on random programs
# per arch flavor.  Exits non-zero on any divergence.  `embsan_cli check`
# with the default --execs 1000 is the full campaign.
check-diff: build
	./_build/default/bin/embsan_cli.exe check --seed 1 --execs 250

# Restore-transparency oracle on a bounded seeded campaign: snapshot /
# run / restore must be architecturally invisible under all four
# engine/probe configurations (250 programs x 3 arch flavors).
check-snap: build
	./_build/default/bin/embsan_cli.exe check --oracle restore-transparency \
	  --seed 1 --execs 250

# Mode-agreement oracle on a bounded seeded campaign: the same firmware
# and syscall sequence under EmbSan-C (compile-time callouts) and
# EmbSan-D (translation-time probes) must yield the same unique report
# set (250 programs x 3 arch flavors).
check-modes: build
	./_build/default/bin/embsan_cli.exe check --oracle mode-agreement \
	  --seed 1 --execs 250

# Toggle-storm oracle on a bounded seeded campaign: random run-time
# toggling of probe subscriptions, dirty tracking, cmplog and superblock
# formation must be architecturally invisible AND translation-flush-free
# (the retranslation-free property; flushes_invalidate must stay 0).
check-toggle: build
	./_build/default/bin/embsan_cli.exe check --oracle toggle-storm \
	  --oracle subscription-churn --seed 1 --execs 250

# Sched-transparency oracle on a bounded seeded campaign: a two-hart
# machine driven by a fuzzer-chosen schedule (identical draw streams)
# must produce the same interleaving on the Fast and Baseline engines
# (250 programs x 3 arch flavors = 750 seeded programs).
check-sched: build
	./_build/default/bin/embsan_cli.exe check --oracle sched-transparency \
	  --seed 1 --execs 250

# Race-detection bench with ratio guards: on the race-suite firmware,
# fuzzed schedules must find strictly more of the seeded races than the
# fixed round-robin rotation, and ftrace's happens-before tracking must
# find at least as many as KCSAN's sampled watchpoints.  Writes
# BENCH_race.json; exits non-zero on a guard violation.
check-race: build
	./_build/default/bench/main.exe race

# Orchestrator smoke: a short 2-worker campaign over one RTOS image with
# frontier exchange and per-epoch telemetry.  Exercises the multi-domain
# path end-to-end (worker boot, epoch barrier, merge, global triage).
check-orch: build
	./_build/default/bin/embsan_cli.exe campaign OpenHarmony-stm32f407 \
	  --jobs 2 --execs 400 --seed 3 --exchange 100 --telemetry

# Rehost-transparency oracle on a bounded seeded campaign (250 programs
# x 3 arch flavors = 750 seeded programs): with the model-free rehosting
# layer armed on both engines — memoized MMIO responses plus
# fuzzer-scheduled interrupt injection — Fast and Baseline must stay in
# lockstep.  Then the rehosting bench with its A/B and throughput ratio
# guards (writes BENCH_rehost.json; exits non-zero on a violation).
check-rehost: build
	./_build/default/bin/embsan_cli.exe check --oracle rehost-transparency \
	  --seed 1 --execs 250
	./_build/default/bench/main.exe rehost

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

check: build test bench-smoke check-diff check-snap check-modes check-toggle \
	check-sched check-race check-orch check-rehost

# Umbrella over every check-* target (what CI runs, one job per target).
check-all: check

clean:
	dune clean
