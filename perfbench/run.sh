#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's report and its final JSON
# line go to stdout.  Exits 2 without a result when the checkout lacks
# the library sources.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a netdiv checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/src/main.exe >&2
exec ./_build/default/perfbench/src/main.exe "$@"
