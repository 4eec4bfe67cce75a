#!/usr/bin/env bash
# vet_diff.sh — the apollo-vet CI ratchet.
#
# Runs apollo-vet -json over the module and compares the diagnostic
# stream against the committed baseline. Any diagnostic not in the
# baseline fails the run, so the finding count can only go down;
# diagnostics that disappeared are reported as a hint to re-baseline
# (shrinking the baseline is a separate, deliberate commit). The live
# waiver count is ratcheted the same way: a run whose summary reports
# more waivers_used than the baseline's fails, so a finding cannot be
# traded for a waiver without the baseline saying so.
#
# Usage: scripts/vet_diff.sh [baseline.json [target-dir]]
#
# Baseline format: the raw apollo-vet -json stream (one JSON object per
# diagnostic, then one {"summary":true,...} record). A clean module's
# baseline is a single summary line. Re-baseline with:
#
#   go run ./cmd/apollo-vet -json ./... > results/VET_BASELINE.json
#
# Exit codes: 0 no new diagnostics and no new waivers, 1 ratchet
# regression, 2 vet itself failed to load the module.
set -u -o pipefail

baseline="${1:-results/VET_BASELINE.json}"
target="${2:-./...}"
GO="${GO:-go}"

if [ ! -f "$baseline" ]; then
    echo "vet_diff: baseline $baseline not found" >&2
    exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$GO" run "$root/cmd/apollo-vet" -json "$target" >"$tmp/run.json" 2>"$tmp/run.err"
status=$?
if [ "$status" -ge 2 ]; then
    echo "vet_diff: apollo-vet failed to analyze $target" >&2
    cat "$tmp/run.err" >&2
    exit 2
fi

# Keep only diagnostic records, normalize absolute paths to repo-relative
# so the baseline is machine-independent, and sort for set comparison.
normalize() {
    grep -v '"summary":true' "$1" | sed "s|\"file\":\"$root/|\"file\":\"|" | sort
}
normalize "$baseline" >"$tmp/base.txt"
normalize "$tmp/run.json" >"$tmp/now.txt"

new="$(comm -13 "$tmp/base.txt" "$tmp/now.txt")"
gone="$(comm -23 "$tmp/base.txt" "$tmp/now.txt")"

if [ -n "$new" ]; then
    echo "vet_diff: NEW diagnostics not in $baseline:" >&2
    printf '%s\n' "$new" >&2
    echo "vet_diff: fix them or waive with a justified //apollo: directive" >&2
    exit 1
fi
# waivers_used of a stream's summary record; 0 when the record has none.
waivers() {
    local n
    n="$(sed -n '/"summary":true/s/.*"waivers_used":\([0-9][0-9]*\).*/\1/p' "$1" | tail -n 1)"
    echo "${n:-0}"
}
base_waivers="$(waivers "$baseline")"
now_waivers="$(waivers "$tmp/run.json")"
if [ "$now_waivers" -gt "$base_waivers" ]; then
    echo "vet_diff: $now_waivers live waivers, $baseline allows $base_waivers" >&2
    echo "vet_diff: fix the finding instead of waiving it, or re-baseline deliberately:" >&2
    echo "  $GO run ./cmd/apollo-vet -json ./... > $baseline" >&2
    exit 1
fi
if [ -n "$gone" ]; then
    count="$(printf '%s\n' "$gone" | wc -l)"
    echo "vet_diff: $count baseline diagnostic(s) no longer reported; consider re-baselining:"
    echo "  $GO run ./cmd/apollo-vet -json ./... > $baseline"
fi
echo "vet_diff: no new diagnostics ($(wc -l <"$tmp/now.txt") total, baseline $(wc -l <"$tmp/base.txt")); $now_waivers live waivers (baseline $base_waivers)"
