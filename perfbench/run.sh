#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it.
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Must be started from the repository root. Build output goes to stderr so
# the last line of stdout stays the result object.
set -euo pipefail
if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ are required)" >&2
  exit 2
fi
# the shared build cache lives outside the checkout, so it stays off
DUNE_CACHE=disabled dune build --root . --display quiet perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
