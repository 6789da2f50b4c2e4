#!/bin/sh
# Build the benchmark from the sources of the checkout it is run in,
# then run it: sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the
# last line of standard output is the benchmark's JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
