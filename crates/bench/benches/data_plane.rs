//! P11 — zero-copy data-plane microbenchmarks.
//!
//! Two questions, all over the E6 shape (2 chained concepts × 2
//! coexisting versions → an 8-branch UCQ of joins and projections):
//!
//! 1. **Batched vs. row-at-a-time** — the same branch plans drained with
//!    the default operator batch width against `batch_size = 1`, which
//!    degenerates every `next_cols` pull into one-row batches. The batched
//!    path must never be slower, including at 1k rows where the adaptive
//!    width clamps down.
//! 2. **Kernel throughput** — rows/sec through scan→join→π over the eight
//!    branch plans, run one after the other through one executor and one
//!    scan cache, at 1k and 10k rows per wrapper (EXPERIMENTS.md P11 keeps
//!    the dated numbers).
//!
//! Every cell runs the one (columnar) data plane; the row plane P11 and
//! P13 once compared it with is deleted (EXPERIMENTS.md keeps the retired
//! layout sweep's numbers as a dated record).
//!
//! Outputs are asserted identical across drain widths before sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use mdm_bench::mixed_system;
use mdm_core::rewrite::plan_for_cq;
use mdm_relational::{Catalog, ExecOptions, Executor, Plan, ScanCache, Table};

/// Runs `plans` in order through one executor over one scan cache.
fn run_branches(catalog: &dyn Catalog, options: &ExecOptions, plans: &[Plan]) -> Vec<Table> {
    let cache = ScanCache::new();
    let executor = Executor::with_options(catalog, options.clone()).with_scan_cache(&cache);
    plans
        .iter()
        .map(|plan| executor.run(plan).expect("executes"))
        .collect()
}

fn p11_data_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("p11_data_plane");
    group.sample_size(15);
    for rows in [1_000usize, 10_000] {
        let system = mixed_system(2, 2, rows);
        let rewriting = system.mdm.rewrite(&system.walk).expect("rewrites");
        let plans: Vec<Plan> = rewriting
            .queries
            .iter()
            .map(|cq| plan_for_cq(cq, &rewriting.output_columns).expect("branch plan"))
            .collect();
        let catalog = system.mdm.catalog();
        let batched = ExecOptions::sequential();
        let row_at_a_time = ExecOptions {
            batch_size: 1,
            ..ExecOptions::sequential()
        };
        // Warm the wrapper payload caches and prove the drain width does
        // not change a byte of the answer.
        let warm = run_branches(catalog, &batched, &plans);
        let narrow = run_branches(catalog, &row_at_a_time, &plans);
        assert_eq!(warm, narrow, "drain width must not change the answer");
        let rows: usize = warm.iter().map(Table::len).sum();
        group.throughput(Throughput::Elements(rows as u64));
        for (label, options) in [("batched", &batched), ("row_at_a_time", &row_at_a_time)] {
            group.bench_with_input(
                BenchmarkId::new(format!("e6_rows={rows}"), label),
                options,
                |b, options| {
                    b.iter(|| std::hint::black_box(run_branches(catalog, options, &plans)))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, p11_data_plane);
criterion_main!(benches);
