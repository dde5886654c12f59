#!/usr/bin/env bash
# Same-session A/B of the repo benchmark: the working tree against a parent.
#
#   scripts/ab.sh PARENT_REF [SEED] [PAIRS] [WORKLOAD...]
#
# Checks PARENT_REF out as a git worktree under a temp dir (or, when
# PARENT_REF is a directory, uses that checkout as it is), builds both
# `mdm-benchmark` binaries into separate target dirs, then runs full
# `run --seed SEED` outputs PAIRS times (default 42, 2), alternating which
# side goes first, and feeds each pair to `mdm-benchmark compare`. Naming
# workloads after PAIRS runs only their measured windows
# (`run --workload W --seed SEED --trace 0`, one after another), so many
# pairs of one workload fit where a few full runs would. A count
# the PR declares as changed shows up there as NOT IDENTICAL: that is the
# expected output of an A/B, so compare's verdict is printed, not returned.
# Ends with per-side medians over all pairs. Outputs stay in target/ab/out.
set -uo pipefail
[ $# -ge 1 ] || { echo "usage: $0 PARENT_REF [SEED] [PAIRS] [WORKLOAD...]" >&2; exit 2; }
ref=$1 seed=${2:-42} pairs=${3:-2}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
root=$(cd "$(dirname "$0")/.." && pwd)
work=$root/target/ab
out=$work/out
tmp=$(mktemp -d)
worktree=
cleanup() {
    [ -n "$worktree" ] && git -C "$root" worktree remove --force "$worktree"
    rm -rf "$tmp"
}
trap cleanup EXIT

if [ -d "$ref" ]; then
    parent=$(cd "$ref" && pwd)
else
    parent=$tmp/parent
    git -C "$root" worktree add --detach "$parent" "$ref" >&2 || exit 2
    worktree=$parent
fi

rm -rf "$out" && mkdir -p "$out"
for side in parent change; do
    [ $side = parent ] && tree=$parent || tree=$root
    CARGO_TARGET_DIR=$work/build-$side cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml" || exit 2
done
bin() { echo "$work/build-$1/release/mdm-benchmark"; }
# One side's output: the full run, or the named workloads' windows.
measure() {
    if [ ${#workloads[@]} -eq 0 ]; then
        "$(bin "$1")" run --seed "$seed"
    else
        local status=0 workload
        for workload in "${workloads[@]}"; do
            "$(bin "$1")" run --workload "$workload" --seed "$seed" --trace 0 || status=1
        done
        return $status
    fi
}

for i in $(seq 1 "$pairs"); do
    # Odd pairs run the parent first, even pairs the change.
    [ $((i % 2)) -eq 1 ] && order="parent change" || order="change parent"
    for side in $order; do
        measure $side > "$out/$side-$i.txt" \
            || echo "pair $i: the $side run exited non-zero" >&2
    done
    echo "== pair $i ($order), seed $seed: first = parent, second = change =="
    "$(bin change)" compare "$out/parent-$i.txt" "$out/change-$i.txt"
done

# Medians per side. `latency_p50_ms` is scaled by the run's calibration;
# the raw figure comes from the `info … raw` line of the same run.
echo "== medians over $pairs pair(s): parent -> change (pairs the change won) =="
awk -v pairs="$pairs" '
function side() { return FILENAME ~ /\/parent-[0-9]+\.txt$/ ? "parent" : "change" }
function pair() { match(FILENAME, /-[0-9]+\.txt$/); return substr(FILENAME, RSTART + 1, RLENGTH - 5) }
function note(workload, metric, value) {
    key = workload " " metric
    if (!(key in seen)) { seen[key] = 1; order[++n] = key }
    v[key, side(), pair()] = value
}
$1 == "metric" { note($2, $3, $4) }
$1 == "info" && $3 == "raw" {
    split($4, kv, "=")
    note($2, "raw_" kv[1], kv[2])
}
function median(key, s,    i, j, m, t, a) {
    m = 0
    for (i = 1; i <= pairs; i++) if ((key, s, i) in v) a[++m] = v[key, s, i] + 0
    for (i = 2; i <= m; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return m == 0 ? "nan" : (m % 2 ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2)
}
END {
    higher_is_better["throughput_qps"] = 1
    for (k = 1; k <= n; k++) {
        key = order[k]
        split(key, part, " ")
        p = median(key, "parent"); c = median(key, "change")
        if (p == c && part[2] !~ /^(latency|raw_latency|throughput|cpu_ms|peak_rss|setup_s)/) continue
        wins = 0
        for (i = 1; i <= pairs; i++) {
            a = v[key, "parent", i]; b = v[key, "change", i]
            if (part[2] in higher_is_better ? b > a : b < a) wins++
        }
        printf "%-16s %-36s %14.4f -> %14.4f  %+7.1f%%  %d/%d\n", part[1], part[2], p, c, p ? (c - p) / p * 100 : 0, wins, pairs
    }
}' "$out"/parent-*.txt "$out"/change-*.txt
