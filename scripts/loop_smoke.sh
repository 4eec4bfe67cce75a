#!/usr/bin/env bash
# Smoke-test the closed training loop end to end against real daemons:
# train a stale champion from a large-problem recording, start
# apollo-serve with telemetry ingestion and apollo-traind against its
# spool, then run apollo-tune on a small problem the champion mispredicts
# and require the full cycle — telemetry upload, drift trigger, retrain,
# champion/challenger publish, live hot-swap — before the run ends.
# Exits non-zero on any failure.
set -euo pipefail

GO="${GO:-go}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
SERVE_PID=""
TRAIND_PID=""

cleanup() {
    for pid in "$TRAIND_PID" "$SERVE_PID"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
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
    ./cmd/apollo-serve ./cmd/apollo-record ./cmd/apollo-train \
    ./cmd/apollo-traind ./cmd/apollo-tune)

echo "== train a stale champion (recorded at size 40; it will mispredict size 8)"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 40 -steps 3 \
    -policy seq_exec -out "$WORK/seq.csv"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 40 -steps 3 \
    -policy omp_parallel_for_exec -out "$WORK/omp.csv"

echo "== start apollo-serve with telemetry ingestion"
"$WORK/bin/apollo-serve" -addr 127.0.0.1:0 -dir "$WORK/registry" \
    -telemetry "$WORK/spool" -poll 100ms >"$WORK/serve.log" 2>&1 &
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

"$WORK/bin/apollo-train" -data "$WORK/seq.csv,$WORK/omp.csv" -cv 0 \
    -out "$WORK/stale.json" -push "$BASE" -push-name loop/policy | tail -n1

echo "== start apollo-traind on the spool"
"$WORK/bin/apollo-traind" -server "$BASE" -spool "$WORK/spool" \
    -model loop/policy -interval 300ms >"$WORK/traind.log" 2>&1 &
TRAIND_PID=$!

echo "== run apollo-tune at size 8 until the retrained model hot-swaps in"
"$WORK/bin/apollo-tune" -server "$BASE" -model loop/policy \
    -app LULESH -problem sedov -size 8 -steps 20 -wait-swaps 1 \
    -poll 100ms -flush 100ms | tee "$WORK/tune.log"

echo "== loop evidence"
# The stale-model case of the exploration budget: looks keep flowing (the
# retrain needs them) and stay inside their share of kernel time.
DONE="$(grep '^apollo-tune: done' "$WORK/tune.log")"
EXPLORED="$(sed -n 's/.* explored=\([0-9]*\) .*/\1/p' <<<"$DONE")"
SHARE="$(sed -n 's/.* explore_share=\([0-9.]*\) .*/\1/p' <<<"$DONE")"
[[ "${EXPLORED:-0}" -gt 0 ]] || { echo "FAIL: explored=$EXPLORED, want > 0"; exit 1; }
awk -v s="${SHARE:-1}" 'BEGIN { exit !(s <= 0.02) }' || { echo "FAIL: explore_share=$SHARE, want <= 0.02"; exit 1; }
grep -q "published=true" "$WORK/traind.log" || {
    cat "$WORK/traind.log"; echo "FAIL: trainer never published"; exit 1; }
fetch "$BASE/models" | grep -q '"loop/policy"'
METRICS="$(fetch "$BASE/metrics")"
echo "$METRICS" | grep -q 'apollo_telemetry_batches_total{model="loop/policy"}'
echo "$METRICS" | grep -q 'apollo_telemetry_rows_total{model="loop/policy"}'
VERSION="$(echo "$METRICS" | sed -n 's/^apollo_model_version{model="loop\/policy"} //p')"
[[ "${VERSION:-1}" -ge 2 ]] || { echo "FAIL: model version $VERSION, want >= 2"; exit 1; }
ls "$WORK"/spool/loop/policy/seg-*.jsonl >/dev/null || { echo "FAIL: no spool segments"; exit 1; }

echo "== shutdown"
kill "$TRAIND_PID"; wait "$TRAIND_PID" 2>/dev/null || true; TRAIND_PID=""
kill "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true; SERVE_PID=""
grep -q "shutting down" "$WORK/traind.log"

echo "PASS: loop smoke"
