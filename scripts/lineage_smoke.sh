#!/usr/bin/env bash
# Smoke-test closed-loop lineage tracing end to end against real
# daemons: three apollo-serve replicas (peer sync + loop journals), an
# apollo-traind, and an apollo-tune run whose stale champion forces one
# drift-triggered retrain. Every process journals loop events into one
# directory; apollo-inspect loop must stitch them into a complete
# drift -> retrain -> publish -> fleet-converged timeline with a nonzero
# loop reaction time. Exits non-zero on any failure.
#
# Set LINEAGE_SMOKE_OUT to a directory to keep the journals and the
# stitched JSON report (CI uploads them as artifacts).
set -euo pipefail

GO="${GO:-go}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
PIDS=()
TRAIND_PID=""

cleanup() {
    for pid in "${TRAIND_PID:-}" "${PIDS[@]:-}"; do
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

pick_port() {
    local p
    while :; do
        p=$((20000 + RANDOM % 20000))
        if ! (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; then
            echo "$p"
            return
        fi
        exec 3>&- 2>/dev/null || true
    done
}

echo "== build"
(cd "$ROOT" && $GO build -o "$WORK/bin/" \
    ./cmd/apollo-serve ./cmd/apollo-record ./cmd/apollo-train \
    ./cmd/apollo-traind ./cmd/apollo-tune ./cmd/apollo-inspect)

JOURNAL="$WORK/loopjournal"
mkdir -p "$JOURNAL"

echo "== start 3 replicas with peer sync and loop journals"
P1="$(pick_port)"; P2="$(pick_port)"; P3="$(pick_port)"
PEERS="r1=http://127.0.0.1:$P1,r2=http://127.0.0.1:$P2,r3=http://127.0.0.1:$P3"
for i in 1 2 3; do
    port_var="P$i"
    "$WORK/bin/apollo-serve" -addr "127.0.0.1:${!port_var}" -dir "$WORK/registry$i" \
        -telemetry "$WORK/spool$i" -poll 200ms -id "r$i" -peers "$PEERS" -sync 200ms \
        -loop-journal "$JOURNAL" >"$WORK/serve$i.log" 2>&1 &
    PIDS+=($!)
done
for i in 1 2 3; do
    port_var="P$i"
    for _ in $(seq 1 100); do
        fetch "http://127.0.0.1:${!port_var}/healthz" >/dev/null 2>&1 && break
        sleep 0.1
    done
    fetch "http://127.0.0.1:${!port_var}/healthz" >/dev/null \
        || { cat "$WORK/serve$i.log"; echo "FAIL: replica r$i never came up"; exit 1; }
done
echo "   replicas at ports $P1 $P2 $P3"

echo "== push a stale champion to r1 (recorded at size 40; it will mispredict size 8)"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 40 -steps 3 \
    -policy seq_exec -out "$WORK/seq.csv"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 40 -steps 3 \
    -policy omp_parallel_for_exec -out "$WORK/omp.csv"
"$WORK/bin/apollo-train" -data "$WORK/seq.csv,$WORK/omp.csv" -cv 0 \
    -out "$WORK/stale.json" -push "http://127.0.0.1:$P1" -push-name lineage/policy | tail -n1

echo "== start apollo-traind on r1's spool with loop tracing"
"$WORK/bin/apollo-traind" -server "http://127.0.0.1:$P1" -spool "$WORK/spool1" \
    -model lineage/policy -interval 300ms -loop-journal "$JOURNAL" \
    >"$WORK/traind.log" 2>&1 &
TRAIND_PID=$!

echo "== run apollo-tune at size 8 until the retrained model hot-swaps in"
"$WORK/bin/apollo-tune" -server "http://127.0.0.1:$P1" -model lineage/policy \
    -app LULESH -problem sedov -size 8 -steps 20 -wait-swaps 1 \
    -poll 100ms -flush 100ms -loop-journal "$JOURNAL" | tee "$WORK/tune.log"

echo "== wait for the retrained model to converge on all replicas (sync-pull leg)"
CONVERGED=""
for _ in $(seq 1 100); do
    ALL=1
    for i in 1 2 3; do
        port_var="P$i"
        V="$(fetch "http://127.0.0.1:${!port_var}/metrics" 2>/dev/null \
            | sed -n 's/^apollo_model_version{model="lineage\/policy"} //p')"
        [[ "${V:-0}" -ge 2 ]] || ALL=""
    done
    [[ -n "$ALL" ]] && { CONVERGED=1; break; }
    sleep 0.1
done
[[ -n "$CONVERGED" ]] || { echo "FAIL: retrained model never converged on the fleet"; exit 1; }

echo "== lineage metrics on the publish replica"
METRICS="$(fetch "http://127.0.0.1:$P1/metrics")"
echo "$METRICS" | grep 'apollo_model_lineage{model="lineage/policy"' \
    || { echo "FAIL: no apollo_model_lineage info-series on r1"; exit 1; }

echo "== shut daemons down so every journal flushes"
kill "$TRAIND_PID"; wait "$TRAIND_PID" 2>/dev/null || true; TRAIND_PID=""
for pid in "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
done
PIDS=()

echo "== stitch the journals"
"$WORK/bin/apollo-inspect" loop -dir "$JOURNAL" | tee "$WORK/timeline.txt"
"$WORK/bin/apollo-inspect" loop -dir "$JOURNAL" -json >"$WORK/loop_report.json"

COMPLETE="$(grep -o '"complete_loops": [0-9]*' "$WORK/loop_report.json" | grep -o '[0-9]*')"
[[ "${COMPLETE:-0}" -ge 1 ]] \
    || { cat "$WORK/timeline.txt"; echo "FAIL: no complete loop in the stitched report"; exit 1; }
P50="$(grep -A4 '"reaction"' "$WORK/loop_report.json" | sed -n 's/.*"p50_ns": \([0-9.e+]*\).*/\1/p' | head -n1)"
[[ -n "$P50" && "$P50" != "0" ]] \
    || { cat "$WORK/timeline.txt"; echo "FAIL: loop reaction p50 is zero or missing"; exit 1; }
grep -q 'drift-fired' "$WORK/timeline.txt" || { echo "FAIL: timeline lacks drift-fired"; exit 1; }
grep -q 'sync-pull' "$WORK/timeline.txt" || { echo "FAIL: timeline lacks sync-pull"; exit 1; }
grep -Eq '  publish +serve:r1 ' "$WORK/timeline.txt" || { echo "FAIL: timeline lacks r1's publish"; exit 1; }
grep -q 'client-swap' "$WORK/timeline.txt" || { echo "FAIL: timeline lacks client-swap"; exit 1; }
grep 'loop reaction time' "$WORK/timeline.txt"

if [[ -n "${LINEAGE_SMOKE_OUT:-}" ]]; then
    mkdir -p "$LINEAGE_SMOKE_OUT"
    cp -r "$JOURNAL"/loop-* "$WORK/loop_report.json" "$WORK/timeline.txt" "$LINEAGE_SMOKE_OUT/"
    echo "   journals and report copied to $LINEAGE_SMOKE_OUT"
fi

echo "PASS: lineage smoke"
