#!/usr/bin/env bash
# Builds the benchmark from source and runs it (see perfbench/README.md):
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a source checkout; build output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a source checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
