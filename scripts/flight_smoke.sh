#!/usr/bin/env bash
# Smoke-test the flight recorder end to end against real daemons: train
# a model, serve it, run apollo-tune with a debug listener (the tuner is
# the recorder's one producer: decisions are made at the launch), capture a timed Chrome trace and a flight capture from
# the live endpoints while the tuner is deciding, and require that
# apollo-inspect validates the trace and renders the decision analyses.
# Exits non-zero on any failure.
set -euo pipefail

GO="${GO:-go}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
SERVE_PID=""
TUNE_PID=""

cleanup() {
    for pid in "$TUNE_PID" "$SERVE_PID"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

fetch() { # fetch URL [outfile]
    if command -v curl >/dev/null 2>&1; then
        curl -fsS ${2:+-o "$2"} "$1"
    else
        wget -qO "${2:--}" "$1"
    fi
}

wait_line() { # wait_line LOGFILE SED-PATTERN PID -> echoes first match
    local out=""
    for _ in $(seq 1 100); do
        out="$(sed -n "$2" "$1" | head -n1)"
        [[ -n "$out" ]] && { echo "$out"; return 0; }
        kill -0 "$3" 2>/dev/null || { cat "$1" >&2; echo "FAIL: daemon died" >&2; return 1; }
        sleep 0.1
    done
    cat "$1" >&2; echo "FAIL: never saw expected line" >&2; return 1
}

echo "== build"
(cd "$ROOT" && $GO build -o "$WORK/bin/" \
    ./cmd/apollo-serve ./cmd/apollo-record ./cmd/apollo-train \
    ./cmd/apollo-tune ./cmd/apollo-inspect)

echo "== train a policy model"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 16 -steps 3 \
    -policy seq_exec -out "$WORK/seq.csv"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 16 -steps 3 \
    -policy omp_parallel_for_exec -out "$WORK/omp.csv"

echo "== start apollo-serve"
"$WORK/bin/apollo-serve" -addr 127.0.0.1:0 \
    -dir "$WORK/registry" -telemetry "$WORK/spool" -poll 100ms >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
BASE="$(wait_line "$WORK/serve.log" \
    's/^apollo-serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$SERVE_PID")"
echo "   api at $BASE"

"$WORK/bin/apollo-train" -data "$WORK/seq.csv,$WORK/omp.csv" -cv 0 \
    -out "$WORK/model.json" -push "$BASE" -push-name flight/policy | tail -n1

echo "== run apollo-tune with a debug listener and capture a live trace"
"$WORK/bin/apollo-tune" -server "$BASE" -model flight/policy \
    -app LULESH -problem sedov -size 8 -steps 500000 \
    -debug-addr 127.0.0.1:0 -poll 100ms -flush 100ms >"$WORK/tune.log" 2>&1 &
TUNE_PID=$!
TUNE_DEBUG="$(wait_line "$WORK/tune.log" \
    's/^apollo-tune: debug on \(http:\/\/[^/]*\).*/\1/p' "$TUNE_PID")"
echo "   tuner debug at $TUNE_DEBUG"

# A timed capture: the endpoint blocks for the window, then returns every
# decision that landed on the recorder as Chrome trace-event JSON.
fetch "$TUNE_DEBUG/debug/apollo/trace?sec=1" "$WORK/trace.json"
fetch "$TUNE_DEBUG/debug/apollo/flight" "$WORK/tune-flight.json"
kill "$TUNE_PID"; wait "$TUNE_PID" 2>/dev/null || true; TUNE_PID=""

echo "== a finished run reports its flight records: one launch in 16 a site"
"$WORK/bin/apollo-tune" -server "$BASE" -model flight/policy \
    -app LULESH -problem sedov -size 8 -steps 20 \
    -debug-addr 127.0.0.1:0 -poll 100ms -flush 100ms >"$WORK/tune-done.log" 2>&1 || {
    cat "$WORK/tune-done.log"; echo "FAIL: apollo-tune run failed"; exit 1; }
DONE="$(grep '^apollo-tune: done' "$WORK/tune-done.log")"
echo "   $DONE"
RECORDS="$(sed -n 's/.* flight_records=\([0-9]*\) .*/\1/p' <<<"$DONE")"
DECISIONS="$(sed -n 's/.* decisions=\([0-9]*\) .*/\1/p' <<<"$DONE")"
awk -v r="${RECORDS:-0}" -v d="${DECISIONS:-0}" 'BEGIN { exit !(r > 0 && r < d / 4) }' || {
    echo "FAIL: flight_records=$RECORDS of decisions=$DECISIONS, want 0 < records < decisions/4"; exit 1; }
UPLOADED="$(sed -n 's/.* uploaded_rows=\([0-9]*\) .*/\1/p' <<<"$DONE")"
UPLOAD_ERRORS="$(sed -n 's/.* upload_errors=\([0-9]*\).*/\1/p' <<<"$DONE")"
[[ "${UPLOADED:-0}" -gt 0 && "$UPLOAD_ERRORS" == 0 ]] || {
    echo "FAIL: uploaded_rows=$UPLOADED upload_errors=$UPLOAD_ERRORS, want rows > 0 and no errors"; exit 1; }

echo "== validate the captured trace and flight analyses"
"$WORK/bin/apollo-inspect" trace -in "$WORK/trace.json" | tee "$WORK/trace.txt"
grep -q 'valid chrome trace: [1-9][0-9]* events' "$WORK/trace.txt" || {
    echo "FAIL: trace capture is empty or invalid"; exit 1; }
grep -q 'decision' "$WORK/trace.txt" || {
    echo "FAIL: trace carries no decision-phase spans"; exit 1; }
"$WORK/bin/apollo-inspect" flight -in "$WORK/tune-flight.json" | tee "$WORK/tune-flight.txt"
grep -q 'flight capture: [1-9]' "$WORK/tune-flight.txt" || {
    echo "FAIL: tuner flight capture holds no records"; exit 1; }
grep -q 'distinct paths' "$WORK/tune-flight.txt" || {
    echo "FAIL: no decision-path histogram"; exit 1; }

echo "== shutdown"
kill "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true; SERVE_PID=""

echo "PASS: flight smoke"
