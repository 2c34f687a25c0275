#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under the checkout (_build/ and
# .vpp_bench/); dune's shared cache is switched off for the same reason.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/vpp_bench.exe >&2
exec ./_build/default/benchmark/vpp_bench.exe "$@"
