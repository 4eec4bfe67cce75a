#!/usr/bin/env bash
# Smoke-test the compiled decision path end to end against a real
# daemon: record training data, start apollo-serve, train-and-push a
# model (the registry compiles it at publish), then run apollo-inspect
# models -verify, which differentially checks the compiled walk against
# the interpreted tree on boundary and random vectors AND against the
# live /predict endpoint (single and batch). Exits non-zero on any
# disagreement.
set -euo pipefail

GO="${GO:-go}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
SERVE_PID=""

cleanup() {
    if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fetch() { # fetch URL
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

echo "== build"
(cd "$ROOT" && $GO build -o "$WORK/bin/" \
    ./cmd/apollo-serve ./cmd/apollo-record ./cmd/apollo-train ./cmd/apollo-inspect)

echo "== record training data (simulated LULESH, one run per policy)"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 8 -steps 3 \
    -policy seq_exec -out "$WORK/seq.csv"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 8 -steps 3 \
    -policy omp_parallel_for_exec -out "$WORK/omp.csv"

echo "== start apollo-serve on a random port"
"$WORK/bin/apollo-serve" -addr 127.0.0.1:0 -dir "$WORK/registry" \
    -poll 100ms >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

BASE=""
for _ in $(seq 1 100); do
    BASE="$(sed -n 's/^apollo-serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$WORK/serve.log" | head -n1)"
    [[ -n "$BASE" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.log"; echo "FAIL: daemon died"; exit 1; }
    sleep 0.1
done
[[ -n "$BASE" ]] || { cat "$WORK/serve.log"; echo "FAIL: never saw listen line"; exit 1; }
echo "   daemon at $BASE"

echo "== train and push (publish-time compile happens in the registry)"
"$WORK/bin/apollo-train" -data "$WORK/seq.csv,$WORK/omp.csv" -cv 0 \
    -out "$WORK/model.json" -push "$BASE" -push-name smoke/policy | tail -n1

echo "== model listing exposes compilation stats"
fetch "$BASE/models" | grep -q '"flat_bytes"'

echo "== compiled report + differential verification (local and live)"
OUT="$("$WORK/bin/apollo-inspect" models -url "$BASE" -verify)"
echo "$OUT"
echo "$OUT" | grep -q 'smoke/policy'
echo "$OUT" | grep -q 'compiled == interpreted'

echo "== registry-directory report agrees"
DIROUT="$("$WORK/bin/apollo-inspect" models -dir "$WORK/registry" -verify)"
echo "$DIROUT" | grep -q 'compiled == interpreted'

echo "== shutdown"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "PASS: compile smoke"
