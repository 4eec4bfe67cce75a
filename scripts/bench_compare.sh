#!/usr/bin/env bash
# bench_compare.sh — the before/after a performance change quotes, as
# one command.
#
# Exports <parent-ref> into the git-ignored .bench_compare/, then runs
# the repository benchmark (benchmark/run.sh, every workload, both
# passes) on the parent and on this working tree as alternating pairs —
# one run-set per side per seed, the side that goes first flipping with
# the seed's parity, so host drift falls on both — and hands the two
# merged run files to `benchmark/run.sh -compare`, whose verdicts
# (bounds, >= 9/10 wins, beyond the parent's quartiles) and exit code are
# this script's.
#
# Usage: scripts/bench_compare.sh <parent-ref> [pairs [first-seed]]
#        (default 10 pairs on seeds 1..10; a pair takes about 7 minutes)
#
# Runs accumulate: the per-seed run files live in
# .bench_compare/<parent>-<tree>/, keyed by the parent commit and the
# tree of this checkout (`git stash create`'s tree when it is dirty;
# untracked files do not count), so `… <ref> 6 1` then `… <ref> 4 7`
# judges all ten pairs, and a seed already run on a side is not run
# again. Another parent or an edited tree starts a fresh directory.
#
# Nothing under benchmark/ is touched: each side builds and runs its own
# copy of the benchmark against its own copy of the module. The merged
# run files land in the keyed directory as {parent,change}.json, per-seed
# files, logs and traces under out/<side>/.
set -euo pipefail

ref="${1:?usage: scripts/bench_compare.sh <parent-ref> [pairs [first-seed]]}"
pairs="${2:-10}"
first="${3:-1}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$(git -C "$root" rev-parse --verify "$ref^{commit}")"
stash="$(git -C "$root" stash create)"
tree="$(git -C "$root" rev-parse "${stash:-HEAD}^{tree}")"
work="$root/.bench_compare/${parent:0:12}-${tree:0:12}"
mkdir -p "$work/out/parent" "$work/out/change"
if [ ! -d "$work/parent" ]; then
    rm -rf "$work/parent.tmp"
    mkdir "$work/parent.tmp"
    git -C "$root" archive "$parent" | tar -x -C "$work/parent.tmp"
    mv "$work/parent.tmp" "$work/parent"
fi
echo "bench_compare: run files in $work" >&2

# run_side <side> <checkout> <seed>: one run-set, written to
# out/<side>/BENCH-seed<seed>.json unless an earlier call wrote it.
run_side() {
    if [ -f "$work/out/$1/BENCH-seed$3.json" ]; then
        echo "bench_compare: seed $3, $1: kept from an earlier run" >&2
        return
    fi
    echo "bench_compare: seed $3, $1" >&2
    bash "$2/benchmark/run.sh" -seed "$3" -sets 1 -out "$work/out/$1" >"$work/out/$1/seed$3.log" || {
        echo "bench_compare: the $1 run on seed $3 failed; see $work/out/$1/seed$3.log" >&2
        exit 1
    }
}

# merge <side> <seed>...: concatenate the per-seed run files' "runs"
# arrays, in the order given, under the first file's header. The files
# are Go's json.MarshalIndent with a one-space indent, which puts the
# array's brackets alone on their lines; -compare rejects anything
# malformed.
merge() {
    local side="$1" seed sep=
    shift
    {
        sed -n '1,/^ "runs": \[$/p' "$work/out/$side/BENCH-seed$1.json"
        for seed; do
            [ -z "$sep" ] || echo "$sep"
            sep=' ,'
            sed -n '/^ "runs": \[$/,/^ \]$/p' "$work/out/$side/BENCH-seed$seed.json" | sed '1d;$d'
        done
        printf ' ]\n}\n'
    } >"$work/$side.json"
}

for ((seed = first; seed < first + pairs; seed++)); do
    if ((seed % 2 == 1)); then
        run_side parent "$work/parent" "$seed"
        run_side change "$root" "$seed"
    else
        run_side change "$root" "$seed"
        run_side parent "$work/parent" "$seed"
    fi
done

# Judge every seed both sides have, from this call and earlier ones.
seeds=()
for f in "$work"/out/parent/BENCH-seed*.json; do
    seed="${f##*BENCH-seed}"
    seed="${seed%.json}"
    [ ! -f "$work/out/change/BENCH-seed$seed.json" ] || seeds+=("$seed")
done
mapfile -t seeds < <(printf '%s\n' "${seeds[@]}" | sort -n)
echo "bench_compare: judging ${#seeds[@]} pairs (seeds ${seeds[*]})" >&2
merge parent "${seeds[@]}"
merge change "${seeds[@]}"
exec bash "$root/benchmark/run.sh" -compare "$work/parent.json" "$work/change.json"
