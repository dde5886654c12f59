#!/usr/bin/env bash
# Runs the full benchmark twice back to back on the same build, for each
# seed given (default: 42 7), and holds every (workload, end-to-end metric)
# pair of the two outputs to its bound in BENCHMARK.json; exact counts must
# be identical. The comparison is appended to benchmark/out/repeat-seed.txt.
# Exits non-zero on a breach.
set -uo pipefail
here=$(cd "$(dirname "$0")" && pwd)
run=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)
seeds=("$@")
[ ${#seeds[@]} -eq 0 ] && seeds=(42 7)
mkdir -p "$here/out"
record="$here/out/repeat-seed.txt"
: > "$record"
status=0
for seed in "${seeds[@]}"; do
    for side in first second; do
        "${run[@]}" run --seed "$seed" > "$here/out/repeat-$seed-$side.txt" || status=1
    done
    {
        echo "== seed $seed =="
        grep -E '^env (commit|nproc) ' "$here/out/repeat-$seed-first.txt" | sort -u
        grep -E '^wall ' "$here/out/repeat-$seed-first.txt" | sed 's/^/first  /'
        grep -E '^wall ' "$here/out/repeat-$seed-second.txt" | sed 's/^/second /'
        # The served-versus-in-process gap and the validity of the split.
        grep -E '^metric [a-z_]+ (server\.(socket_p50|transport|dispatch)_us|trace\.(coverage|overhead_share)) ' \
            "$here/out/repeat-$seed-first.txt"
        "${run[@]}" compare "$here/out/repeat-$seed-first.txt" "$here/out/repeat-$seed-second.txt"
    } | tee -a "$record"
    [ "${PIPESTATUS[0]}" -eq 0 ] || status=1
done
exit $status
