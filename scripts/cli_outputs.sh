#!/usr/bin/env bash
# Records what the single-file CLI prints, for byte-identity checks
# across a refactor: runs `recmodc check|run|split` (plus `check`/`run`
# under option sets that reach the limit, JSON-diagnostics and elision
# paths) over every tests/corpus/**/*.rm and stores stdout, stderr and
# the exit code of each run under OUTDIR. Run from the repo root, once
# per binary, then compare the two trees with `diff -r`:
#
#   scripts/cli_outputs.sh old/recmodc /tmp/cli_old
#   scripts/cli_outputs.sh target/release/recmodc /tmp/cli_new
#   diff -r /tmp/cli_old /tmp/cli_new
set -u
BIN=$1
OUT=$2
rm -rf "$OUT"
mkdir -p "$OUT"
# One fixed crash directory, so bundle paths printed on stderr match.
CRASH=${TMPDIR:-/tmp}/recmod-cli-outputs-crash
find tests/corpus -name '*.rm' | sort | while read -r f; do
  i=0
  for args in "check" "run" "split" "run --steps" "check --diagnostics=json" \
              "check --deadline-ms 0" "check --limits depth=3" \
              "run --limits eval-fuel=5" "check --max-errors 0"; do
    i=$((i + 1))
    tag=$(echo "$f" | tr '/' '_')_$i
    rm -rf "$CRASH"
    mkdir -p "$CRASH"
    # shellcheck disable=SC2086
    "$BIN" $args "$f" --crash-dir "$CRASH" >"$OUT/$tag.out" 2>"$OUT/$tag.err"
    echo $? >"$OUT/$tag.code"
    # Bundle file names carry the writer's pid; mask it.
    sed -i -E 's/(recmod-crash-[0-9a-f]+)-[0-9]+-/\1-PID-/' "$OUT/$tag.err"
  done
done
rm -rf "$CRASH"
