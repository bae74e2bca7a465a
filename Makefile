# `make check` is the tier-1 verify plus a fault-campaign smoke run, so the
# resilience path is exercised on every verify.

DUNE ?= dune

.PHONY: check build test smoke resilience-smoke bench-smoke bench-scaling \
	serve-smoke bench-serve attn-smoke bench-attn plan-smoke bench-plan \
	compile-smoke bench-compile clean

check: build test smoke resilience-smoke bench-smoke serve-smoke attn-smoke \
	plan-smoke compile-smoke

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# ~1.5 s: one fault cell plus a punched-hole degraded-selection demo on the
# tiny configuration.
smoke:
	$(DUNE) exec bin/substation_cli.exe -- faults -c tiny --rates 0.1 --sigmas 0.0 --punch 1

# <2 s: fault-injected encoder forward+backward under the supervised pool —
# every guarded fast kernel crashes/hangs/corrupts, falls back to the naive
# oracle, and the result is checked bitwise against a clean oracle run
# (nonzero exit on divergence). Run serial and with the default domain count
# so chunk-level worker crashes are exercised too.
resilience-smoke:
	SUBSTATION_DOMAINS=1 $(DUNE) exec bin/substation_cli.exe -- resilience -c tiny --exec-rate 1.0
	$(DUNE) exec bin/substation_cli.exe -- resilience -c tiny --exec-rate 1.0 --retries 2

# Quick JSON bench of the CPU numeric backend on small hparams; fails if
# the fast path is slower than the naive oracle, or if the pooled parallel
# run regresses past tolerance. Run once pinned serial (the multicore pool
# disabled end to end) and once with the default domain count, so both
# dispatch paths stay green. `-- json` writes the full BENCH_pr3.json.
bench-smoke:
	SUBSTATION_DOMAINS=1 $(DUNE) exec bench/main.exe -- smoke
	$(DUNE) exec bench/main.exe -- smoke

# Serial-vs-parallel wall clock of the fast backend at 1/2/N domains;
# regenerates BENCH_pr4.json.
bench-scaling:
	$(DUNE) exec bench/main.exe -- scaling

# <2 s: KV-cached decode checked bitwise against the full-recompute
# oracle, plus a low-load simulated trace that must serve every request
# with zero sheds/rejections (nonzero exit otherwise).
serve-smoke:
	$(DUNE) exec bench/main.exe -- serve-smoke

# Cached-vs-recompute decode throughput (asserts >=5x at L=64) and the
# latency/throughput curve across batching policies; regenerates
# BENCH_pr7.json.
bench-serve:
	$(DUNE) exec bench/main.exe -- serve-json

# <1 s: streaming tiled attention checked against the naive
# QK^T -> softmax -> dropout -> V chain at L=64 (1e-10 relative), causal +
# dropout, forward and backward (nonzero exit on divergence).
attn-smoke:
	$(DUNE) exec bench/main.exe -- attn-smoke

# Fused-vs-unfused attention wall clock up to L=2048 plus the KV-cached
# decode point; asserts the fused fwd+bwd is >=3x the unfused chain and
# that scratch stays O(L * d_head); regenerates BENCH_pr8.json.
bench-attn:
	$(DUNE) exec bench/main.exe -- attn-json

# <1 s: memory-planned execution (Memplan.plan: each container dropped
# after its last use) of the fused tiny encoder checked bitwise against
# the allocate-everything interpreter (fast and naive), the >=25%
# resident-set reduction, and a prepacked 8-token decode checked bitwise
# against per-call packing (nonzero exit on divergence).
plan-smoke:
	$(DUNE) exec bench/main.exe -- plan-smoke

# Encoder fwd+bwd wall clock through Executor.run under the current
# regime (memory-planned) vs passthrough (unplanned), plan-vs-naive peak
# resident floats (asserts >=25% reduction), and decode tokens/s with
# weight prepacking on vs off; regenerates BENCH_pr9.json (the committed
# file was recorded with slot recycling and in-place/alias placement, both
# since removed, so its slot counts are history).
bench-plan:
	$(DUNE) exec bench/main.exe -- plan-json

# <1 s: verified compile of the L=64 encoder — after every pipeline pass
# the staged program is checked against the uncompiled interpreter
# (bitwise for every container) — plus
# the plan-cache hit with zero passes re-run (nonzero exit otherwise).
compile-smoke:
	$(DUNE) exec bench/main.exe -- compile-smoke

# Cold/cached/verified compile timings, per-pass stats, and the
# compiled-vs-uncompiled execute comparison on the L=64 encoder;
# regenerates BENCH_pr10.json.
bench-compile:
	$(DUNE) exec bench/main.exe -- compile-json

clean:
	$(DUNE) clean
