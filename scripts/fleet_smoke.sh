#!/usr/bin/env bash
# Smoke-test the fleet layer end to end against real daemons: three
# apollo-serve replicas syncing models peer-to-peer, a champion pushed to
# one replica converging on all of them (same version, same ETag), a
# client fleet (apollo-tune -clients 4 over the three replicas) surviving
# a mid-run replica kill with zero failed refreshes, and a collective
# apollo-traind retraining from the replicas' merged telemetry spools
# behind the incumbent publish gate. Exits non-zero on any failure.
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

# pick_port finds a free TCP port. The bind race between picking and the
# daemon's listen is tolerated: collisions just fail the smoke loudly.
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

echo "== start 3 replicas with peer sync"
P1="$(pick_port)"; P2="$(pick_port)"; P3="$(pick_port)"
PEERS="r1=http://127.0.0.1:$P1,r2=http://127.0.0.1:$P2,r3=http://127.0.0.1:$P3"
for i in 1 2 3; do
    port_var="P$i"
    "$WORK/bin/apollo-serve" -addr "127.0.0.1:${!port_var}" -dir "$WORK/registry$i" \
        -telemetry "$WORK/spool$i" -poll 200ms -id "r$i" -peers "$PEERS" -sync 200ms \
        >"$WORK/serve$i.log" 2>&1 &
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

echo "== push a stale champion to r1 only (recorded at size 40)"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 40 -steps 3 \
    -policy seq_exec -out "$WORK/seq.csv"
"$WORK/bin/apollo-record" -app LULESH -problem sedov -size 40 -steps 3 \
    -policy omp_parallel_for_exec -out "$WORK/omp.csv"
"$WORK/bin/apollo-train" -data "$WORK/seq.csv,$WORK/omp.csv" -cv 0 \
    -out "$WORK/stale.json" -push "http://127.0.0.1:$P1" -push-name fleet/policy | tail -n1

echo "== wait for the champion to converge on all replicas (delta sync)"
CONVERGED=""
for _ in $(seq 1 100); do
    if "$WORK/bin/apollo-inspect" fleet -replicas "$PEERS" >"$WORK/converge.log" 2>&1; then
        CONVERGED=1
        break
    fi
    sleep 0.1
done
[[ -n "$CONVERGED" ]] || { cat "$WORK/converge.log"; echo "FAIL: model never converged"; exit 1; }
grep "converged" "$WORK/converge.log"

echo "== start collective apollo-traind over the merged spools"
# traind publishes to r2: r1 is the ring owner of fleet/policy and is the
# replica the harness run below kills, so the publish target must survive.
"$WORK/bin/apollo-traind" \
    -server "http://127.0.0.1:$P2" \
    -spool "r1=$WORK/spool1,r2=$WORK/spool2,r3=$WORK/spool3" \
    -replicas "$PEERS" \
    -model fleet/policy -interval 300ms >"$WORK/traind.log" 2>&1 &
TRAIND_PID=$!

echo "== run the client fleet at size 8, killing replica r1 mid-run"
# r1 is the consistent-hash owner of fleet/policy (the ring walk for that
# key prefers r1, then r3, then r2), so killing it forces real failover:
# model refreshes and telemetry posts must land on the next ring member.
# Each client probes the replicas' health at the -poll cadence.
"$WORK/bin/apollo-tune" -server "$PEERS" -model fleet/policy \
    -app LULESH -problem sedov -size 8 -clients 4 -steps 20 -duration 6s \
    -poll 100ms -flush 100ms >"$WORK/fleet.log" 2>&1 &
FLEET_PID=$!
sleep 2
kill "${PIDS[0]}" 2>/dev/null || true
wait "${PIDS[0]}" 2>/dev/null || true
echo "   killed r1"
wait "$FLEET_PID" || { cat "$WORK/fleet.log"; echo "FAIL: fleet harness errored"; exit 1; }
SUMMARY="$(grep '^apollo-tune: done' "$WORK/fleet.log")"
echo "   $SUMMARY"

field() { echo "$SUMMARY" | sed -n "s/.*$1=\([0-9.]*\).*/\1/p"; }
# No replica could supply a model: what the tuner reads is the source's
# refresh, so that is where the kill must not show.
[[ "$(field refresh_errors)" == "0" ]] \
    || { cat "$WORK/fleet.log"; echo "FAIL: model refreshes failed during replica kill"; exit 1; }
[[ "$(field exhausted)" == "0" ]] \
    || { cat "$WORK/fleet.log"; echo "FAIL: requests exhausted every replica"; exit 1; }
[[ "$(field failovers)" -gt 0 || "$(field evictions)" -gt 0 ]] \
    || { cat "$WORK/fleet.log"; echo "FAIL: kill left no failover/eviction trace"; exit 1; }
[[ "$(field uploaded_rows)" -gt 0 ]] \
    || { cat "$WORK/fleet.log"; echo "FAIL: no telemetry uploaded"; exit 1; }

echo "== wait for the collective retrain to publish"
PUBLISHED=""
for _ in $(seq 1 100); do
    if grep -q "published=true" "$WORK/traind.log"; then
        PUBLISHED=1
        break
    fi
    sleep 0.1
done
[[ -n "$PUBLISHED" ]] || { cat "$WORK/traind.log"; echo "FAIL: collective trainer never published"; exit 1; }

echo "== retrained champion converges on the surviving replicas"
SURVIVORS="r2=http://127.0.0.1:$P2,r3=http://127.0.0.1:$P3"
CONVERGED=""
for _ in $(seq 1 100); do
    if "$WORK/bin/apollo-inspect" fleet -replicas "$SURVIVORS" >"$WORK/converge2.log" 2>&1 \
        && grep -q "fleet/policy" "$WORK/converge2.log"; then
        CONVERGED=1
        break
    fi
    sleep 0.1
done
[[ -n "$CONVERGED" ]] || { cat "$WORK/converge2.log"; echo "FAIL: retrained model never converged"; exit 1; }
grep "converged" "$WORK/converge2.log"
V2="$(fetch "http://127.0.0.1:$P2/metrics" | sed -n 's/^apollo_model_version{model="fleet\/policy"} //p')"
[[ "${V2:-1}" -ge 2 ]] || { echo "FAIL: model version $V2 on r2, want >= 2"; exit 1; }
# A trainer over several spools stamps each source's rows read.
LINEAGE="$(fetch "http://127.0.0.1:$P2/models/fleet/policy" | grep -o '"sample_counts":{[^}]*}')"
echo "   lineage $LINEAGE"
[[ "$LINEAGE" == *'"r1":'*'"r2":'*'"r3":'* ]] \
    || { echo "FAIL: collective lineage does not count every source spool"; exit 1; }

echo "== spool evidence: telemetry landed on more than one replica or failed over"
ls "$WORK"/spool*/fleet/policy/seg-*.jsonl >/dev/null \
    || { echo "FAIL: no spool segments anywhere"; exit 1; }

echo "PASS: fleet smoke"
