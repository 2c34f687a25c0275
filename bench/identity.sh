#!/usr/bin/env bash
# Counter identity of this checkout against another one (typically the
# parent commit, unpacked with `git archive`):
#
#   bash bench/identity.sh PARENT_DIR
#
# Builds benchmark/vpp_bench.exe in both trees, runs every benchmark
# workload once at full size with spans on (seed 1, --seconds 0
# --trace 1) and diffs what each reports: correct/attempted/failed and
# every metric except the host-time and allocation ones (host.*,
# *.self_frac, sim.events_per_s, trace.overhead_frac, epcm.touch_words).
# Prints "W identical" or the diff per workload, then each workload's
# alloc_mwords and peak_heap_mb from one untraced iteration on both
# sides. Exits 1 if any workload differs, 2 on bad usage. Traces and
# intermediate files go to a temporary directory, so neither tree gains
# files outside its _build/.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: bash bench/identity.sh PARENT_DIR" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$(dirname "$0")/.." && pwd)"
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
command -v jq >/dev/null 2>&1 || { echo "bench/identity.sh needs jq" >&2; exit 2; }
export DUNE_CACHE=disabled

workloads="paging placement oltp market paper"
skip='with_entries(select((.key|startswith("host.")|not) and (.key|endswith(".self_frac")|not)
      and (.key|IN("sim.events_per_s","trace.overhead_frac","epcm.touch_words")|not)))'
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for dir in "$parent" "$change"; do
  (cd "$dir" && dune build --root . --display quiet ./benchmark/vpp_bench.exe)
done

# bench DIR WORKLOAD TRACE: the JSON line one iteration of WORKLOAD prints.
bench() {
  (cd "$1" && ./_build/default/benchmark/vpp_bench.exe --workload "$2" --seconds 0 \
    --trace "$3" --trace-file "$tmp/$2.trace.json") | tail -1
}

status=0
for w in $workloads; do
  for side in parent change; do
    dir=$([ "$side" = parent ] && echo "$parent" || echo "$change")
    bench "$dir" "$w" 1 | jq -S "{correct, attempted, failed, metrics: (.metrics | $skip)}" \
      > "$tmp/$w.$side.json"
  done
  if diff "$tmp/$w.parent.json" "$tmp/$w.change.json"; then
    echo "$w identical"
  else
    echo "$w DIFFERS"
    status=1
  fi
done

echo
printf '%-10s %14s %14s %14s %14s\n' workload alloc_parent alloc_change peak_parent peak_change
for w in $workloads; do
  p=$(bench "$parent" "$w" 0 | jq -r '[.metrics.alloc_mwords.value, .metrics.peak_heap_mb.value] | @tsv')
  c=$(bench "$change" "$w" 0 | jq -r '[.metrics.alloc_mwords.value, .metrics.peak_heap_mb.value] | @tsv')
  read -r pa pp <<<"$p"
  read -r ca cp <<<"$c"
  printf '%-10s %14.2f %14.2f %14.2f %14.2f\n' "$w" "$pa" "$ca" "$pp" "$cp"
done
exit $status
