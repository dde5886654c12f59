//! P14 — optimizer scaling: cost-based vs. unoptimized execution of the
//! rewritten UCQ on synthetic ecosystems with 10–40× the wrappers/versions
//! of the paper's Table 1 use case (3 wrappers, ≤2 versions per source).
//!
//! The ecosystems are skewed — concept 0's source is small, the rest are
//! large — so the walk's natural join order puts the big input on the
//! hash-join build side, which is exactly what the cost pass reorders
//! (plus π-pruning the wide scans down to the joined/projected columns).
//!
//! Each point builds one system per optimize mode and times the served
//! path — [`mdm_core::Mdm::query_degraded`] under `set_optimize` — after a
//! warm-up query has let the stats catalog observe real cardinalities and
//! a stats refresh has made them current: every sampled query optimizes
//! its branch plans inline against those observations, as production
//! does. Outputs are asserted byte-identical across modes before sampling.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mdm_bench::{skewed_system, BenchSystem};
use mdm_core::RewriteOptions;
use mdm_relational::{Deadline, OptimizeMode, StatsCatalog};

/// (concepts, versions per source, rows in source 0, rows per later
/// source): 15–40 coexisting wrapper versions against Table 1's three.
const POINTS: &[(usize, usize, usize, usize)] = &[
    (2, 10, 500, 50_000),
    (2, 20, 300, 20_000),
    (3, 5, 200, 20_000),
];

fn prepared(point: (usize, usize, usize, usize), mode: OptimizeMode) -> BenchSystem {
    let (concepts, versions, small, large) = point;
    let mut system = skewed_system(concepts, versions, small, large);
    // Wide ecosystems rewrite to thousands of union branches.
    system.mdm.set_options(RewriteOptions {
        max_branches: 10_000,
        ..RewriteOptions::default()
    });
    // An isolated catalog so parallel bench binaries can't cross-feed the
    // process-wide one.
    system.mdm.set_stats_catalog(Arc::new(StatsCatalog::new()));
    system.mdm.set_optimize(mode);
    system
}

fn optimizer_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("p14_optimizer_scaling");
    group.sample_size(10);
    for &point in POINTS {
        let (concepts, versions, small, large) = point;
        let label = format!("c{concepts}_v{versions}_r{small}x{large}");
        let mut renders: Vec<String> = Vec::new();
        for mode in [OptimizeMode::Off, OptimizeMode::Cost] {
            let system = prepared(point, mode);
            let warm = system
                .mdm
                .query_degraded(&system.walk, Deadline::none())
                .expect("query answers");
            renders.push(warm.render());
            system.mdm.refresh_stats();
            group.bench_with_input(
                BenchmarkId::new(mode.as_str(), &label),
                &system,
                |b, system| {
                    b.iter(|| {
                        std::hint::black_box(
                            system
                                .mdm
                                .query_degraded(&system.walk, Deadline::none())
                                .expect("query answers"),
                        )
                    })
                },
            );
        }
        assert_eq!(
            renders[0], renders[1],
            "optimized output must be byte-identical ({label})"
        );
    }
    group.finish();
}

criterion_group!(benches, optimizer_scaling);
criterion_main!(benches);
