//! P6 — ablations of the design choices DESIGN.md calls out.
//!
//! * **distinct on/off**: the δ of the UCQ's answer (set vs bag
//!   semantics), on the served path `Mdm::query_degraded`, whose merge is
//!   that δ;
//! * **optimizer on/off**: predicate pushdown + join input ordering on the
//!   rewritten plan with a selective one-relation column equality stacked
//!   on top.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mdm_bench::mixed_system;
use mdm_core::RewriteOptions;
use mdm_relational::optimizer::{Optimizer, Statistics};
use mdm_relational::resilience::Deadline;
use mdm_relational::{Catalog, Executor, Plan};

fn distinct_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("p6_distinct_on_off");
    for distinct in [true, false] {
        let mut system = mixed_system(2, 2, 5_000);
        system.mdm.set_options(RewriteOptions {
            distinct,
            ..RewriteOptions::default()
        });
        group.bench_with_input(
            BenchmarkId::from_parameter(if distinct { "distinct" } else { "bag" }),
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
    group.finish();
}

/// Statistics that know the wrapper row counts exactly.
struct ExactStats<'a> {
    catalog: &'a dyn Catalog,
}

impl Statistics for ExactStats<'_> {
    fn estimated_rows(&self, relation: &str) -> Option<usize> {
        self.catalog
            .provider(relation)
            .and_then(|p| p.columns().ok())
            .map(|(_, rows)| rows)
    }
}

fn optimizer_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("p6_optimizer_on_off");
    group.sample_size(20);
    let system = mixed_system(2, 1, 20_000);
    let catalog = system.mdm.catalog();
    let resolve = |name: &str| catalog.relation_schema(name);

    // A selective equality between two columns of one *base* wrapper,
    // stacked above the join — exactly what predicate pushdown exists to
    // sink. `id` runs over every row while `c0_f1` is drawn from 0..1000,
    // so few rows survive. (A filter on the final projected names cannot
    // sink through the π, so that variant would measure nothing; cf. the
    // unit tests in `relational::optimizer`.)
    use mdm_relational::schema::ColumnRef;
    let join = Plan::scan("s0_v1").join(
        Plan::scan("s1_v1"),
        vec![(
            ColumnRef::qualified("s0_v1", "c0_next"),
            ColumnRef::qualified("s1_v1", "id"),
        )],
    );
    let filtered = join.filter(
        ColumnRef::qualified("s0_v1", "id"),
        ColumnRef::qualified("s0_v1", "c0_f1"),
    );

    group.bench_function("unoptimized", |b| {
        b.iter(|| std::hint::black_box(Executor::new(catalog).run(&filtered).expect("runs")))
    });
    let stats = ExactStats { catalog };
    let optimized = Optimizer::new(&stats, &resolve).optimize(filtered.clone());
    assert_ne!(
        format!("{optimized}"),
        format!("{filtered}"),
        "pushdown must change the plan"
    );
    group.bench_function("optimized", |b| {
        b.iter(|| std::hint::black_box(Executor::new(catalog).run(&optimized).expect("runs")))
    });
    // Semantics check: both produce identical sorted results.
    let a = Executor::new(catalog)
        .run(&filtered)
        .expect("runs")
        .sorted();
    let b = Executor::new(catalog)
        .run(&optimized)
        .expect("runs")
        .sorted();
    assert_eq!(a, b);
    group.finish();
}

criterion_group!(benches, distinct_ablation, optimizer_ablation);
criterion_main!(benches);
