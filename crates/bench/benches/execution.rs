//! P4 — federated execution cost vs. data size.
//!
//! Answers the Figure 8-shaped two-concept UCQ (two versions per source,
//! an 8-branch union of joins) on the served path,
//! `Mdm::query_degraded`, while the rows-per-wrapper grow: the cached
//! rewriting's prepared branch plans, then the merge. The paper stages
//! wrapper outputs in SQLite; this measures our native engine on the same
//! shape. Expected: near-linear in total input rows (hash joins dominate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mdm_bench::mixed_system;
use mdm_relational::resilience::Deadline;

fn p4_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("p4_execution_vs_rows");
    group.sample_size(20);
    for rows in [100usize, 1_000, 10_000, 100_000] {
        let system = mixed_system(2, 2, rows);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &system, |b, system| {
            b.iter(|| {
                std::hint::black_box(
                    system
                        .mdm
                        .query_degraded(&system.walk, Deadline::none())
                        .expect("executes"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, p4_execution);
criterion_main!(benches);
