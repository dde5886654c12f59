#!/usr/bin/env bash
# Full verification gate: release build, the whole test suite, the repo
# benchmark's own tests plus one quick run of it, and a warning-free clippy
# pass over every target. CI and pre-commit both run this; keep it the
# single source of truth for "the workspace is healthy".
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> cargo test --release"
cargo test --release --workspace --quiet

echo "==> crash-recovery suite (release)"
cargo test --release -p mdm-integration-tests --test durability --quiet

echo "==> replication suite (release)"
cargo test --release -p mdm-integration-tests --test replication --quiet

echo "==> failover/chaos suite (release, hard timeout)"
# The chaos harness must terminate: a hang here means a stuck promotion
# or a replica that never converges, so fail loudly rather than wedge CI.
timeout 300 cargo test --release -p mdm-integration-tests --test failover --quiet

echo "==> optimizer suite (release)"
cargo test --release -p mdm-relational --test prop_optimizer --quiet

echo "==> evolution churn suite (release, hard timeout)"
# Proptest churn scripts plus /changes long-polls: a hang here means a
# wedged long-poll or a cache livelock, so fail loudly rather than wedge CI.
timeout 300 cargo test --release -p mdm-integration-tests --test evolution_churn --quiet

echo "==> cargo bench --no-run (benches compile, incl. P15 evolution_churn)"
cargo bench --workspace --no-run

echo "==> repo benchmark: schema tests + one quick run (release)"
# benchmark/ is a workspace of its own that binds product symbols by name
# (benchmark/README.md, "Bound symbols"): compiling it is the guard that
# none of them moved, its tests hold its metric names to BENCHMARK.json,
# and the quick run oracle-checks every served answer against Mdm::query.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --quick

echo "==> evaluation harness (E1–E8 + P summaries regenerate)"
cargo run --release --quiet -p mdm-bench --bin evaluation > /dev/null

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo clippy (all targets, -D warnings -D clippy::redundant_clone)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone

echo "==> OK"
