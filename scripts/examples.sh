#!/usr/bin/env bash
# Run the five example programs and diff what they print against
# results/examples_output.txt. The only line that may differ between
# runs, quickstart's temporary model path, is masked on both sides.
# Exits non-zero when an example fails or its output changed.
set -euo pipefail

GO="${GO:-go}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$ROOT"

for ex in quickstart amrpatches crossapp onlinesearch kokkosport; do
    echo "===== examples/$ex ====="
    TMPDIR=/tmp "$GO" run "./examples/$ex"
    echo
done > "$WORK/got.txt"

mask='s#/tmp/[^ ]*#/tmp/...#g'
sed "$mask" results/examples_output.txt > "$WORK/want.txt"
sed "$mask" "$WORK/got.txt" > "$WORK/got.masked.txt"
if ! diff -u "$WORK/want.txt" "$WORK/got.masked.txt"; then
    echo "examples: output differs from results/examples_output.txt" >&2
    exit 1
fi
echo "examples: five examples match results/examples_output.txt"
