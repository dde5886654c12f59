//! P11 — zero-copy data-plane microbenchmarks.
//!
//! Two questions, all over the E6 shape (2 chained concepts × 2
//! coexisting versions → a 4-branch UCQ with joins, σ, π and δ):
//!
//! 1. **Batched vs. row-at-a-time** — the same plan drained with the
//!    default operator batch width against `batch_size = 1`, which
//!    degenerates every `next_cols` pull into one-row batches. The batched
//!    path must never be slower, including at 1k rows where the adaptive
//!    width clamps down.
//! 2. **End-to-end UCQ throughput** — rows/sec through
//!    scan→join→σ→π→∪→δ at 1k and 10k rows per wrapper, the numbers
//!    recorded in EXPERIMENTS.md P11 (the 100k point was sampled with the
//!    since-retired `p4_point` bin).
//!
//! Every cell runs the one (columnar) data plane; the row plane P11 and
//! P13 once compared it with is deleted (EXPERIMENTS.md keeps the retired
//! layout sweep's numbers as a dated record).
//!
//! Outputs are asserted identical across drain widths before sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mdm_bench::mixed_system;
use mdm_relational::{ExecOptions, Executor};

fn p11_data_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("p11_data_plane");
    group.sample_size(15);
    for rows in [1_000usize, 10_000] {
        let system = mixed_system(2, 2, rows);
        let rewriting = system.mdm.rewrite(&system.walk).expect("rewrites");
        let batched = ExecOptions::sequential();
        let row_at_a_time = ExecOptions {
            batch_size: 1,
            ..ExecOptions::sequential()
        };
        // Warm the wrapper payload caches and prove the drain width does
        // not change a byte of the answer.
        let warm = Executor::with_options(system.mdm.catalog(), batched.clone())
            .run(&rewriting.plan)
            .expect("executes");
        let narrow = Executor::with_options(system.mdm.catalog(), row_at_a_time.clone())
            .run(&rewriting.plan)
            .expect("executes");
        assert_eq!(warm, narrow, "drain width must not change the answer");
        group.throughput(Throughput::Elements(warm.len() as u64));
        for (label, options) in [("batched", &batched), ("row_at_a_time", &row_at_a_time)] {
            group.bench_with_input(
                BenchmarkId::new(format!("e6_rows={rows}"), label),
                options,
                |b, options| {
                    b.iter(|| {
                        std::hint::black_box(
                            Executor::with_options(system.mdm.catalog(), options.clone())
                                .run(&rewriting.plan)
                                .expect("executes"),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, p11_data_plane);
criterion_main!(benches);
