#!/bin/sh
# Build the benchmark and the daemon it drives, then run the benchmark with
# the given arguments.  Run from the root of a checkout:
#
#   sh perf/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#
# The first run builds (a minute or so); later runs reuse _build.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perf/run.sh: run from the root of a histotest checkout" >&2
  exit 2
fi
dune build --root . --display quiet perf/main.exe bin/histotestd.exe
exec ./_build/default/perf/main.exe "$@"
