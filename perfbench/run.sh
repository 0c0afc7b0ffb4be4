#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr, so the last
# line of standard output is the benchmark's JSON result. Without the
# repository's sources next to it the build fails and this exits non-zero
# without printing a result.
set -u
cd "$(dirname "$0")/.." || exit 2
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
if [ ! -f dune-project ] ||
  ! dune build --root . --display quiet ./perfbench/perfbench.exe \
    ./perfbench/calibrate.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
