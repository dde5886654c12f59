//! Property tests for the cost-based optimizer: for random plans, random
//! data, and random statistics, optimized plans render byte-identically to
//! unoptimized execution and to the reference interpreter's answer — on
//! both the parallel and sequential execution paths.

use proptest::prelude::*;

use mdm_relational::algebra::Plan;
use mdm_relational::optimizer::{OptimizeMode, Optimizer};
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::stats::StatsCatalog;
use mdm_relational::{pool, Catalog, ExecOptions, Executor, MemoryCatalog, Table, Value};

#[path = "support/reference.rs"]
mod reference;

/// A random table with columns (k, v) — k from a small domain so joins hit.
fn arb_table(relation: &'static str) -> impl Strategy<Value = Table> {
    proptest::collection::vec((0i64..8, -50i64..50), 0..20).prop_map(move |rows| {
        Table::new(
            Schema::qualified(relation, ["k", "v"]),
            rows.into_iter()
                .map(|(k, v)| vec![Value::Int(k), Value::Int(v)])
                .collect(),
        )
        .expect("arity matches")
    })
}

/// Shape knobs for random π-topped branch plans over relations a, b, c:
/// an optional third join (exercises reordering), optional filters
/// (exercise pushdown), an optional second branch, and an optional
/// distinct on top of each. The optimizer leaves δ as it is and optimizes
/// below it; the served path never hands it one (a branch plan has none),
/// so the distinct shape is here as an equivalence input: every pass must
/// recurse through it without changing a row.
#[derive(Debug, Clone)]
struct Shape {
    three_way: bool,
    /// σ[a.k = a.v], which sinks to `a`.
    filter_a: bool,
    /// `Some(false)` is σ[b.k = b.v], which sinks to `b`; `Some(true)` is
    /// σ[a.v = b.v], which no join side covers alone.
    filter_b: Option<bool>,
    distinct: bool,
    /// A second branch, with its own `filter_a`.
    second_branch: Option<bool>,
}

/// An optional flag (None roughly a third of the time).
fn arb_choice() -> BoxedStrategy<Option<bool>> {
    prop_oneof![
        1 => Just(None),
        2 => any::<bool>().prop_map(Some),
    ]
    .boxed()
}

fn arb_shape() -> BoxedStrategy<Shape> {
    (
        any::<bool>(),
        any::<bool>(),
        arb_choice(),
        any::<bool>(),
        arb_choice(),
    )
        .prop_map(
            |(three_way, filter_a, filter_b, distinct, second_branch)| Shape {
                three_way,
                filter_a,
                filter_b,
                distinct,
                second_branch,
            },
        )
}

fn column(relation: &str, name: &str) -> ColumnRef {
    ColumnRef::qualified(relation, name)
}

/// One branch: joins, then filters, then a π to the bare (k, bv) schema
/// shared by every branch.
fn branch(shape: &Shape, filter_a: bool) -> Plan {
    let mut plan = Plan::scan("a").join(
        Plan::scan("b"),
        vec![(
            ColumnRef::qualified("a", "k"),
            ColumnRef::qualified("b", "k"),
        )],
    );
    if shape.three_way {
        plan = plan.join(
            Plan::scan("c"),
            vec![(
                ColumnRef::qualified("b", "k"),
                ColumnRef::qualified("c", "k"),
            )],
        );
    }
    if filter_a {
        plan = plan.filter(column("a", "k"), column("a", "v"));
    }
    match shape.filter_b {
        Some(false) => plan = plan.filter(column("b", "k"), column("b", "v")),
        Some(true) => plan = plan.filter(column("a", "v"), column("b", "v")),
        None => {}
    }
    plan.project(vec![
        (column("a", "k"), ColumnRef::bare("k")),
        (column("b", "v"), ColumnRef::bare("bv")),
    ])
}

/// The branch plans of one random UCQ, in branch order.
fn build(shape: &Shape) -> Vec<Plan> {
    let mut plans = vec![branch(shape, shape.filter_a)];
    plans.extend(shape.second_branch.map(|filter_a| branch(shape, filter_a)));
    if shape.distinct {
        plans = plans.into_iter().map(Plan::distinct).collect();
    }
    plans
}

fn options(parallel: bool) -> ExecOptions {
    ExecOptions {
        pool: if parallel { Some(pool::global()) } else { None },
        // Keep the process-wide catalog out of it: stats here are the
        // random ones fed explicitly below.
        stats: None,
        ..ExecOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cost-based pipeline never changes results: for every random
    /// plan, dataset, and (possibly partial) stats catalog, the sorted
    /// render is byte-identical to unoptimized execution and to the
    /// reference interpreter on every execution path.
    #[test]
    fn cost_mode_renders_like_off_mode(
        a in arb_table("a"),
        b in arb_table("b"),
        c in arb_table("c"),
        shape in arb_shape(),
        profile in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        // Random statistics: each relation is independently profiled or
        // left unknown, so the optimizer sees every mix of present and
        // missing estimates.
        let stats = StatsCatalog::new();
        for (keep, (name, table)) in [profile.0, profile.1, profile.2]
            .iter()
            .zip([("a", &a), ("b", &b), ("c", &c)])
        {
            if *keep {
                stats.observe(name, 1, table.schema(), table.rows());
            }
        }
        let mut catalog = MemoryCatalog::new();
        catalog.register("a", a);
        catalog.register("b", b);
        catalog.register("c", c);
        let resolve = |name: &str| catalog.relation_schema(name);
        let optimizer = Optimizer::new(&stats, &resolve);
        for plan in build(&shape) {
            let expected = reference::run(&plan, &catalog).unwrap().sorted().render();
            for parallel in [false, true] {
                let executor = Executor::with_options(&catalog, options(parallel));
                let baseline = executor.run(&plan).unwrap().sorted().render();
                prop_assert_eq!(&baseline, &expected, "parallel={}", parallel);
                let optimized = optimizer.optimize_with(OptimizeMode::Cost, plan.clone());
                let rendered = executor.run(&optimized).unwrap().sorted().render();
                prop_assert_eq!(&rendered, &expected, "parallel={}", parallel);
            }
        }
    }

    /// Re-optimizing an already-optimized plan still renders identically:
    /// the pipeline may pick a different (equally valid) join shape on a
    /// second pass, but results never drift.
    #[test]
    fn double_optimization_preserves_results(
        a in arb_table("a"),
        b in arb_table("b"),
        c in arb_table("c"),
        shape in arb_shape(),
    ) {
        let stats = StatsCatalog::new();
        for (name, table) in [("a", &a), ("b", &b), ("c", &c)] {
            stats.observe(name, 1, table.schema(), table.rows());
        }
        let mut catalog = MemoryCatalog::new();
        catalog.register("a", a);
        catalog.register("b", b);
        catalog.register("c", c);
        let resolve = |name: &str| catalog.relation_schema(name);
        let optimizer = Optimizer::new(&stats, &resolve);
        let executor = Executor::with_options(&catalog, options(false));
        for plan in build(&shape) {
            let once = optimizer.optimize_with(OptimizeMode::Cost, plan);
            let twice = optimizer.optimize_with(OptimizeMode::Cost, once.clone());
            prop_assert_eq!(
                executor.run(&once).unwrap().sorted().render(),
                executor.run(&twice).unwrap().sorted().render()
            );
        }
    }
}
