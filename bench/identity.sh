#!/usr/bin/env bash
# Behaviour identity of this checkout against another one (typically the
# parent commit, unpacked with `git archive`):
#
#   bash bench/identity.sh PARENT_DIR
#
# Builds benchmark/vpp_bench.exe, bin/vpp_repro.exe and the examples in
# both trees, then compares, printing "X identical" or the difference
# for each:
#
# - every benchmark workload once at full size with spans on (seed 1,
#   --seconds 0 --trace 1): correct/attempted/failed and every metric
#   except the host-time and allocation ones (host.*, *.self_frac,
#   sim.events_per_s, trace.overhead_frac, epcm.touch_words);
# - the full-size perf, market, tier, cache and shard records
#   (--jobs 2), through this tree's `vpp_repro diff`, which ignores key
#   order;
# - the stdout of the ten examples, byte for byte.
#
# Then prints each workload's alloc_mwords and peak_heap_mb from one
# untraced iteration on both sides. Exits 1 if anything differs, 2 on
# bad usage. Traces, records and intermediate files go to a temporary
# directory, so neither tree gains files outside its _build/.
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

examples="quickstart db_cache prefetch_scan page_coloring memory_market checkpoint
          numa_placement gc_discard mp3d_adaptive dsm_sharing"
records="perf market tier cache shard"
for dir in "$parent" "$change"; do
  (cd "$dir" && dune build --root . --display quiet ./benchmark/vpp_bench.exe \
    ./bin/vpp_repro.exe $(for e in $examples; do echo "./examples/$e.exe"; done))
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

# A record whose own checks fail exits 1 but is still written and
# compared; the failure is reported and fails the run.
for r in $records; do
  for side in parent change; do
    dir=$([ "$side" = parent ] && echo "$parent" || echo "$change")
    if ! (cd "$tmp" && "$dir/_build/default/bin/vpp_repro.exe" "$r" --jobs 2 \
      --out "$tmp/$r.$side.json" >/dev/null); then
      echo "$r: a check failed in the $side tree"
      status=1
    fi
  done
  if "$change/_build/default/bin/vpp_repro.exe" diff "$tmp/$r.parent.json" "$tmp/$r.change.json"
  then
    echo "$r record identical"
  else
    echo "$r record DIFFERS"
    status=1
  fi
done

for e in $examples; do
  for side in parent change; do
    dir=$([ "$side" = parent ] && echo "$parent" || echo "$change")
    if ! (cd "$tmp" && "$dir/_build/default/examples/$e.exe") >"$tmp/$e.$side.out"; then
      echo "$e: the example failed in the $side tree"
      status=1
    fi
  done
  if diff "$tmp/$e.parent.out" "$tmp/$e.change.out"; then
    echo "$e example identical"
  else
    echo "$e example DIFFERS"
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
