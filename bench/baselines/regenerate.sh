#!/usr/bin/env bash
# Rewrite the baselines the smoke rules in bench/dune compare against:
# the quick record of every schema, the text of `all`, `ablate`,
# `stats` and `chaos`, and the benchmark's quick-size counters. Run it
# from any directory:
#
#   bash bench/baselines/regenerate.sh
#
# Only do this for a change that moves a record or a table on purpose,
# and say in the change which fields moved (`vpp_repro diff OLD NEW`).
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build ./bin/vpp_repro.exe ./bench/counters.exe
v=./_build/default/bin/vpp_repro.exe
b=bench/baselines
for record in perf market shard tier cache; do
  "$v" "$record" --quick --jobs 2 --out "$b/$record.json" >/dev/null
done
"$v" profile --json >"$b/profile.json"
"$v" all >"$b/all.txt"
"$v" ablate --jobs 2 >"$b/ablate.txt"
"$v" stats >"$b/stats.txt"
"$v" chaos >"$b/chaos.txt"
./_build/default/bench/counters.exe >"$b/counters.txt"
