# `make check` is the tier-1 verify plus a fault-campaign smoke run, the
# resilience smoke and the wall-clock gates.

DUNE ?= dune

.PHONY: check build test smoke resilience-smoke gates clean

check: build test smoke resilience-smoke gates

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

# ~30 s: the wall-clock gates (fast >= naive on 1 and N domains, the
# 2-domain floor, cached decode >= 5x, streaming attention >= 3x at
# L=2048); one OK/FAILED line each, nonzero exit if any fails. The 2-domain floor is timing-based and flaky on a shared 2-vCPU
# host.
gates:
	$(DUNE) exec test/gates/gates.exe

clean:
	$(DUNE) clean
