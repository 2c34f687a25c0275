#!/usr/bin/env bash
# Rewrite the baselines the smoke rules in bench/dune compare against:
# the quick record of every schema, the text of `all`, `ablate`,
# `stats` and `chaos`, the benchmark's quick-size counters and the ten
# examples' stdout. Every
# command runs at --jobs 1 and the smoke rules at --jobs 2, so a passing
# build also shows the output does not depend on the domain count. Run
# it from any directory:
#
#   bash bench/baselines/regenerate.sh
#
# Only do this for a change that moves a record or a table on purpose,
# and say in the change which fields moved (`vpp_repro diff OLD NEW`).
set -euo pipefail
cd "$(dirname "$0")/../.."
examples="quickstart db_cache prefetch_scan page_coloring memory_market checkpoint
          numa_placement gc_discard mp3d_adaptive dsm_sharing"
dune build ./bin/vpp_repro.exe ./bench/counters.exe \
  $(for e in $examples; do echo "./examples/$e.exe"; done)
v=./_build/default/bin/vpp_repro.exe
b=bench/baselines
for record in perf market shard tier cache; do
  "$v" "$record" --quick --jobs 1 --out "$b/$record.json" >/dev/null
done
"$v" profile --json >"$b/profile.json"
"$v" all >"$b/all.txt"
"$v" ablate --jobs 1 >"$b/ablate.txt"
"$v" stats >"$b/stats.txt"
"$v" chaos >"$b/chaos.txt"
./_build/default/bench/counters.exe >"$b/counters.txt"
for e in $examples; do "./_build/default/examples/$e.exe"; done >"$b/examples.txt"
