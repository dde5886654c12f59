//! P9 — parallel execution speedup vs. branch count and data size.
//!
//! Executes version-widened UCQs (the P1 shape: one concept, `versions`
//! coexisting wrapper versions, so the union width equals the version
//! count) through the served path — [`mdm_core::Mdm::query_degraded`] —
//! under `set_threads(1, 2, 4, 8)`. One thread is the sequential baseline;
//! the ratio to it is the speedup reported in EXPERIMENTS.md. Every
//! configuration serves the same cached rewriting — only the pool differs
//! — and every answer is asserted byte-identical to the cold reference
//! (`Mdm::query`) before sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mdm_bench::versions_system;
use mdm_relational::Deadline;

fn p9_parallel_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("p9_parallel_speedup");
    group.sample_size(20);
    for branches in [2usize, 4, 8] {
        for rows in [1_000usize, 10_000] {
            let mut system = versions_system(branches, rows);
            let reference = system.mdm.query(&system.walk).expect("executes").render();
            for threads in [1usize, 2, 4, 8] {
                system.mdm.set_threads(threads);
                let served = system
                    .mdm
                    .query_degraded(&system.walk, Deadline::none())
                    .expect("executes");
                assert_eq!(
                    reference,
                    served.render(),
                    "pool must not change the answer"
                );
                group.throughput(Throughput::Elements((branches * rows) as u64));
                group.bench_with_input(
                    BenchmarkId::new(
                        format!("branches={branches}/rows={rows}"),
                        format!("pool={threads}"),
                    ),
                    &system,
                    |b, system| {
                        b.iter(|| {
                            std::hint::black_box(
                                system
                                    .mdm
                                    .query_degraded(&system.walk, Deadline::none())
                                    .expect("executes"),
                            )
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, p9_parallel_speedup);
criterion_main!(benches);
