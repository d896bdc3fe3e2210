#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout, then runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds N --trace 0|1
# Run from the root of the checkout.  Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# The shared dune cache lives outside the checkout; keep the build inside it.
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
