#!/usr/bin/env bash
# bench_compare.sh — the before/after a performance change quotes, as
# one command.
#
# Exports <parent-ref> into the git-ignored .bench_compare/parent, then
# runs the repository benchmark (benchmark/run.sh, every workload, both
# passes) on the parent and on this working tree as alternating pairs —
# one run-set per side per seed, the side that goes first flipping every
# pair, so host drift falls on both — and hands the two merged run files
# to `benchmark/run.sh -compare`, whose verdicts (bounds, >= 9/10 wins,
# beyond the parent's quartiles) and exit code are this script's.
#
# Usage: scripts/bench_compare.sh <parent-ref> [pairs [first-seed]]
#        (default 10 pairs on seeds 1..10; a pair takes about 7 minutes)
#
# Nothing under benchmark/ is touched: each side builds and runs its own
# copy of the benchmark against its own copy of the module. Run files
# land in .bench_compare/{parent,change}.json, per-seed files and traces
# beside them.
set -euo pipefail

ref="${1:?usage: scripts/bench_compare.sh <parent-ref> [pairs [first-seed]]}"
pairs="${2:-10}"
first="${3:-1}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_compare"
rm -rf "$work"
mkdir -p "$work/parent" "$work/out/parent" "$work/out/change"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"

# run_side <side> <checkout> <seed>: one run-set, written to
# .bench_compare/out/<side>/BENCH-seed<seed>.json.
run_side() {
    echo "bench_compare: seed $3, $1" >&2
    bash "$2/benchmark/run.sh" -seed "$3" -sets 1 -out "$work/out/$1" >"$work/out/$1/seed$3.log" || {
        echo "bench_compare: the $1 run on seed $3 failed; see $work/out/$1/seed$3.log" >&2
        exit 1
    }
}

# merge <side>: concatenate the per-seed run files' "runs" arrays, in
# seed order, under the first file's header. The files are Go's
# json.MarshalIndent with a one-space indent, which puts the array's
# brackets alone on their lines; -compare rejects anything malformed.
merge() {
    local side="$1" seed f
    {
        sed -n '1,/^ "runs": \[$/p' "$work/out/$side/BENCH-seed$first.json"
        for ((seed = first; seed < first + pairs; seed++)); do
            f="$work/out/$side/BENCH-seed$seed.json"
            [ "$seed" -eq "$first" ] || echo ' ,'
            sed -n '/^ "runs": \[$/,/^ \]$/p' "$f" | sed '1d;$d'
        done
        printf ' ]\n}\n'
    } >"$work/$side.json"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    if ((i % 2 == 0)); then
        run_side parent "$work/parent" "$seed"
        run_side change "$root" "$seed"
    else
        run_side change "$root" "$seed"
        run_side parent "$work/parent" "$seed"
    fi
done
merge parent
merge change
exec bash "$root/benchmark/run.sh" -compare "$work/parent.json" "$work/change.json"
