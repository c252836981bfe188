#!/usr/bin/env bash
# Interleaved A/B of the benchmark (perfbench/) between a base revision
# and the working tree. Run from anywhere inside the repository:
#
#   scripts/ab.sh BASE_REV [WORKLOAD] [PAIRS]
#
# WORKLOAD is check_gen (default), serve_mix or run_lists; PAIRS is the
# number of base/change run pairs (default 10). Every run is the
# end-to-end benchmark and lasts BENCHMARK.json's run_seconds.
#
# The base revision is exported with `git archive` into a temporary
# directory (created with mktemp, so TMPDIR picks its place) and its
# perfbench is built there; the directory is removed on exit, even on
# failure. The change is the working tree's perfbench. Runs alternate
# base and change, and the side that goes first alternates too, so a
# drifting machine biases neither side. Each run's last stdout line is
# its JSON summary, kept in the temporary directory while the script
# runs; the failed counts of each pair are printed.
#
# Output: per metric, the median of each side, the base runs'
# inter-quartile range (IQR), the median of the per-pair change/base
# ratios, in how many pairs the change was better (direction from
# BENCHMARK.json; unknown directions print "?"), whether the change's
# median is better than the base's by more than the base IQR ("clear"),
# and every pair's ratio. Every run must report correct: true.
set -euo pipefail

BASE_REV=${1:?usage: scripts/ab.sh BASE_REV [WORKLOAD] [PAIRS]}
WORKLOAD=${2:-check_gen}
PAIRS=${3:-10}

ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
RUN_SECONDS=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
BASE_SHA=$(git rev-parse --verify "$BASE_REV^{commit}")

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
mkdir -p "$TMP/base"
git archive "$BASE_SHA" | tar -x -C "$TMP/base"

echo "ab: building base perfbench at ${BASE_SHA:0:12}" >&2
cargo build --offline --release --quiet --manifest-path "$TMP/base/perfbench/Cargo.toml"
echo "ab: building change perfbench (working tree)" >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml

BIN=target/release/recmod-perfbench
run() { # run <side> <root dir> <pair index>
  local side=$1 dir=$2 i=$3
  (cd "$dir" && "./perfbench/$BIN" --workload "$WORKLOAD" --seed 1 \
    --seconds "$RUN_SECONDS" 2>/dev/null | tail -n 1) \
    >"$TMP/$side.$i.json"
  echo "ab: pair $i $side done" >&2
}

for ((i = 0; i < PAIRS; i++)); do
  if ((i % 2 == 0)); then
    run base "$TMP/base" "$i"
    run change "$ROOT" "$i"
  else
    run change "$ROOT" "$i"
    run base "$TMP/base" "$i"
  fi
done

python3 - "$TMP" "$PAIRS" "$WORKLOAD" "${BASE_SHA:0:12}" <<'EOF'
import json, os, statistics, sys

tmp, pairs, workload, base = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
bench = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

def load(side, i):
    doc = json.load(open(os.path.join(tmp, f"{side}.{i}.json")))
    assert doc.get("correct") is True, f"{side} run {i} is not correct: {doc}"
    return doc

runs = [(load("base", i), load("change", i)) for i in range(pairs)]
print(f"ab: {workload}, base {base} vs working tree, {pairs} interleaved pair(s)")
for i, (b, c) in enumerate(runs):
    print(f"  pair {i}: failed base {b['failed']} change {c['failed']}")
print(f"{'metric':<34} {'base':>11} {'base IQR':>10} {'change':>11} {'ratio':>7} "
      f"{'better':>7} {'clear':>5}  per-pair ratios")
for name in sorted(runs[0][0]["metrics"]):
    bs = [b["metrics"][name]["value"] for b, _ in runs]
    cs = [c["metrics"][name]["value"] for _, c in runs]
    ratios = [c / b for b, c in zip(bs, cs) if b]
    ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
    q1, _, q3 = statistics.quantiles(bs, n=4) if pairs > 1 else (bs[0],) * 3
    gain = statistics.median(cs) - statistics.median(bs)
    way = better.get(name)
    if way is None:
        wins = clear = "?"
    else:
        won = sum((c > b) if way == "higher" else (c < b) for b, c in zip(bs, cs))
        wins = f"{won}/{pairs}"
        clear = "yes" if (gain if way == "higher" else -gain) > q3 - q1 else "no"
    print(f"{name:<34} {statistics.median(bs):>11.4g} {q3 - q1:>10.3g} "
          f"{statistics.median(cs):>11.4g} {ratio:>7} {wins:>7} {clear:>5}  "
          f"{' '.join(f'{r:.3f}' for r in ratios)}")
EOF
