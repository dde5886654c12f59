#!/usr/bin/env bash
# Full verification gate: release build, the whole test suite, the repo
# benchmark's own tests plus one quick run of it, and a warning-free clippy
# pass over every target. CI and pre-commit both run this; keep it the
# single source of truth for "the workspace is healthy".
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> no union operator in the relational algebra (grep gate)"
# A UCQ is a list of branch plans whose union is the answer's merge: no
# Plan holds a ∪, no kernel runs one, and a rewriting carries no whole-UCQ
# plan. The reference path unions branch rows itself.
if grep -rnE 'Plan::Union|Plan::union|ColUnion|union_width|rewriting\.plan' \
        crates/*/src tests examples; then
    echo "the union operator or a whole-UCQ plan is back (see above)"
    exit 1
fi

echo "==> no scalar expression language in the algebra (grep gate)"
# A conjunctive query's σ equates two columns and its π selects and renames
# columns: no literal, operator, evaluation error or vectorised evaluator
# exists to plan or run, and wrapper payloads are read by flattening, not
# by dotted paths. mdm-sparql's FILTER evaluator is separate code with an
# EvalError of its own, so that one name is gated outside it only.
if grep -rnE 'BinOp|Expr::Literal|eval_vec|CExpr|Decoder::cmp|mdm_dataform::Path' \
        crates/*/src tests examples \
    || grep -rn 'EvalError' crates/*/src tests examples | grep -v '^crates/sparql/'; then
    echo "the expression language or the dataform path accessor is back (see above)"
    exit 1
fi

echo "==> the plan cache decides at commit only (grep gate)"
# Each commit's sweep keeps, extends or drops every cached rewriting, so the
# cache keeps no second copy of the mutation history to re-decide at lookup,
# and its counters live under its one mutex.
if grep -nE 'INVALIDATION_LOG_CAPACITY|LoggedMutation|AtomicU64' crates/core/src/cache.rs; then
    echo "the plan cache's invalidation log or atomic counters are back (see above)"
    exit 1
fi

echo "==> no formatted writes straight into a socket (grep gate)"
# With TCP_NODELAY every write(2) leaves as a segment of its own, and
# write! issues one per formatted piece: a request or response is encoded
# into a buffer first and leaves in one write_all. The match spans lines,
# as rustfmt splits a long write! call after its parenthesis.
if grep -rlzP 'write!\(\s*(&\s*)?(mut\s+)?\(?\s*self\.stream\b' crates/*/src; then
    echo "a write! formats straight into a socket field (see the files above)"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

# Both workspace stages run under a hard timeout: the failover/chaos,
# replication and evolution-churn suites must terminate, and a hang there
# means a stuck promotion, a replica that never converges or a wedged
# /changes long-poll — fail loudly rather than wedge CI.
echo "==> cargo test (hard timeout)"
timeout 1800 cargo test --workspace --quiet

echo "==> cargo test --release (hard timeout)"
timeout 1800 cargo test --release --workspace --quiet

echo "==> cargo bench --no-run (benches compile, incl. P15 evolution_churn)"
cargo bench --workspace --no-run

echo "==> repo benchmark: schema tests + one quick run (release)"
# benchmark/ is a workspace of its own that binds product symbols by name
# (benchmark/README.md, "Bound symbols"): compiling it is the guard that
# none of them moved, its tests hold its metric names to BENCHMARK.json,
# and the quick run oracle-checks every served answer against Mdm::query.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
quick=$(mktemp)
trap 'rm -f "$quick"' EXIT
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --quick | tee "$quick"
# Wrapper releases are resident as term columns: a warm query on the three
# read workloads must not encode a single term. The count is exact, so this
# catches a per-query encode creeping back without timing anything.
awk '$1 == "metric" && $3 == "relational.terms_encoded" \
        && $2 ~ /^(serve_hot|scan_join|wide_result)$/ { seen++; if ($4 + 0 != 0) { print "warm queries encode again: " $0; bad = 1 } }
     END { if (seen != 3) { print "expected relational.terms_encoded on 3 read workloads, saw " seen + 0; bad = 1 } exit bad }' "$quick"
# Covered UCQ branches run no plan: of scan_join's 16 branches two run, 5
# kernel invocations per warm query at seed 42 — the merge counts as one
# (6 while its δ kernel counted once per input batch, 100 when every branch
# ran, 8 while each running branch had a δ of its own) — while the covered
# ones still fetch, so every wrapper is fetched once.
awk '$1 == "metric" && $2 == "scan_join" && $3 == "relational.kernel_invocations" {
         kernels++; if ($4 + 0 > 5) { print "covered branches or a branch δ run again: " $0; bad = 1 } }
     $1 == "metric" && $2 == "scan_join" && $3 == "wrappers.fetches_per_query" {
         fetches++; if ($4 + 0 != 4) { print "scan_join no longer fetches each wrapper once: " $0; bad = 1 } }
     END { if (kernels != 1 || fetches != 1) { print "expected one scan_join kernel and fetch count, saw " kernels + 0 " and " fetches + 0; bad = 1 } exit bad }' "$quick"
# The merge is the answer's only δ: no UCQ branch deduplicates on its own.
# wide_result's branches have no covered branch to skip, so a branch δ
# creeping back moves its exact count: 41 invocations per warm query at
# seed 42, the merge's one sort among them (48 while the merge's δ kernel
# counted once per input batch, 56 with a δ per branch).
awk '$1 == "metric" && $2 == "wide_result" && $3 == "relational.kernel_invocations" {
         seen++; if ($4 + 0 != 41) { print "kernel count moved (want 41; a branch δ is back?): " $0; bad = 1 } }
     END { if (seen != 1) { print "expected one wide_result kernel count, saw " seen + 0; bad = 1 } exit bad }' "$quick"
# The served answer is decoded once, result rows × width: 1290 terms per
# warm query on scan_join and 7996 on wide_result (seed 42, --quick, the
# counts recorded before the row engine was deleted). A second decode, or
# one of rows the merge drops, moves them.
awk '$1 == "metric" && $3 == "relational.terms_decoded" && $2 ~ /^(scan_join|wide_result)$/ {
         seen++; want = ($2 == "scan_join") ? 1290 : 7996
         if ($4 + 0 != want) { print "decode count moved (want " want "): " $0; bad = 1 } }
     END { if (seen != 2) { print "expected relational.terms_decoded on scan_join and wide_result, saw " seen + 0; bad = 1 } exit bad }' "$quick"
# Every steward write is one journal op, applied by Mdm::apply whether it
# came from a typed mutator or a steward route: each workload's setup and
# evolution_churn's releases (POSTed through /steward/*) append the same
# records of the same bytes. Exact at seed 42 (--quick); a changed op, op
# encoding or route decoder moves them.
awk 'BEGIN {
         want["serve_hot store.wal_records"] = 3;       want["serve_hot store.wal_bytes_per_release"] = 1276
         want["scan_join store.wal_records"] = 2;       want["scan_join store.wal_bytes_per_release"] = 946
         want["wide_result store.wal_records"] = 2;     want["wide_result store.wal_bytes_per_release"] = 946
         want["evolution_churn store.wal_records"] = 8; want["evolution_churn store.wal_bytes_per_release"] = 946 }
     $1 == "metric" && (($2 " " $3) in want) {
         seen++; if ($4 + 0 != want[$2 " " $3]) { print "journal records moved (want " want[$2 " " $3] "): " $0; bad = 1 } }
     END { if (seen != 8) { print "expected store.wal_records and store.wal_bytes_per_release on 4 workloads, saw " seen + 0; bad = 1 } exit bad }' "$quick"

# The term dictionary is the process's only string table: every string a
# workload's wrappers and queries hold is one of its entries. Exact at seed
# 42 (--quick), recorded when the string intern pool beside it was deleted;
# a string encoded differently, or one the dictionary no longer holds,
# moves them.
awk 'BEGIN {
         want["serve_hot relational.dict_entries"] = 52;          want["serve_hot relational.dict_bytes"] = 621
         want["scan_join relational.dict_entries"] = 3401;        want["scan_join relational.dict_bytes"] = 34672
         want["wide_result relational.dict_entries"] = 3401;      want["wide_result relational.dict_bytes"] = 34672
         want["evolution_churn relational.dict_entries"] = 1804;  want["evolution_churn relational.dict_bytes"] = 18128 }
     $1 == "metric" && (($2 " " $3) in want) {
         seen++; if ($4 + 0 != want[$2 " " $3]) { print "term dictionary moved (want " want[$2 " " $3] "): " $0; bad = 1 } }
     END { if (seen != 8) { print "expected relational.dict_entries and relational.dict_bytes on 4 workloads, saw " seen + 0; bad = 1 } exit bad }' "$quick"
# evolution_churn's encodes are its cold fills: each freshly released
# wrapper streams its payload into term columns once. Exact at seed 42
# (--quick), recorded while a fill still parsed the whole document and
# encoded typed tuples; an ingest that drops, adds or double-encodes a
# cell moves it.
awk '$1 == "metric" && $2 == "evolution_churn" && $3 == "relational.terms_encoded" {
         seen++; if ($4 + 0 != 107.14285714285714) { print "cold fills encode a different count (want 107.14285714285714): " $0; bad = 1 } }
     END { if (seen != 1) { print "expected one evolution_churn relational.terms_encoded, saw " seen + 0; bad = 1 } exit bad }' "$quick"

echo "==> evaluation harness (E1–E8 + P summaries regenerate)"
cargo run --release --quiet -p mdm-bench --bin evaluation > /dev/null

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo clippy (all targets, -D warnings -D clippy::redundant_clone)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone

echo "==> OK"
