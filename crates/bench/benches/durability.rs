//! P10 — durability cost and recovery time of the metadata journal.
//!
//! Two questions the `mdm-store` WAL raises in practice:
//!
//! 1. **What does an acknowledged steward mutation cost** under each fsync
//!    policy? `always` pays one `fsync` per append (the crash-safe
//!    default), `interval` batches syncs on a timer, `never` leaves
//!    flushing to the OS. The spread between them is the price of the
//!    durability guarantee, not of the journal itself.
//! 2. **How long is restart blocked on recovery** as the journal grows?
//!    Recovery = read snapshot + replay WAL; it is linear in the number of
//!    un-compacted records, which is exactly the argument for compaction.
//!    Measured at 1k / 10k / 100k records.
//!
//! Numbers from a container are noisy: `fsync` latency depends entirely on
//! the host's storage stack (an overlayfs on NVMe behaves nothing like a
//! laptop SSD or a CI tmpfs). Treat relative spreads as meaningful, the
//! absolute microseconds as environment-specific.

use std::path::PathBuf;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mdm_core::{FsyncPolicy, Mdm, MetaStore, MutationOp};

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdm-bench-durability-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn concept_op(n: usize) -> MutationOp {
    MutationOp::DefineConcept {
        concept: format!("http://example.org/bench/C{n}"),
    }
}

/// Appends through the full journal path (Mdm mutator → sink → WAL) so the
/// measurement includes encoding, not just the raw file write.
fn p10_append_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("p10_append_latency_vs_fsync");
    group.sample_size(30);
    let policies = [
        ("always", FsyncPolicy::Always),
        (
            "interval_100ms",
            FsyncPolicy::Interval(Duration::from_millis(100)),
        ),
        ("never", FsyncPolicy::Never),
    ];
    for (name, policy) in policies {
        let dir = bench_dir(&format!("append-{name}"));
        let (_meta, mut mdm, _) =
            MetaStore::attach(&dir, policy, Mdm::new()).expect("store attaches");
        let mut serial = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, ()| {
            b.iter(|| {
                serial += 1;
                mdm.apply(&concept_op(serial)).expect("mutation applies");
            })
        });
        drop((_meta, mdm));
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Builds a WAL of `records` mutations once, then times cold recovery
/// (`MetaStore::attach` on a fresh `Mdm`) over it.
fn p10_recovery_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("p10_recovery_time_vs_wal_length");
    group.sample_size(10);
    for records in [1_000usize, 10_000, 100_000] {
        let dir = bench_dir(&format!("recover-{records}"));
        {
            // Seed with `never`: we only need the bytes on disk, not the
            // fsync-per-record cost of writing them.
            let (_meta, mut mdm, _) =
                MetaStore::attach(&dir, FsyncPolicy::Never, Mdm::new()).expect("store attaches");
            for n in 0..records {
                mdm.apply(&concept_op(n)).expect("mutation applies");
            }
            _meta.sync().expect("seed WAL flushes");
        }
        group.bench_with_input(BenchmarkId::from_parameter(records), &dir, |b, dir| {
            b.iter(|| {
                let (_meta, mdm, report) = MetaStore::attach(dir, FsyncPolicy::Never, Mdm::new())
                    .expect("recovery succeeds");
                assert_eq!(report.replayed as usize, records);
                std::hint::black_box(mdm)
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, p10_append_latency, p10_recovery_time);
criterion_main!(benches);
