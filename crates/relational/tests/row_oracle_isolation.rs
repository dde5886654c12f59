//! The row plane is the oracle the columnar plane is held to, so it must not
//! execute the code it judges. The executor picks one plane per plan from
//! `ExecOptions::layout`: a build that slipped a columnar operator into a
//! row plan would still return the right rows — through the columnar
//! kernels.
//!
//! The counters compared here are process-wide, which is why this file is a
//! test binary of its own holding exactly one test.

use mdm_relational::algebra::Plan;
use mdm_relational::expr::{BinOp, Expr};
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::{columnar, metrics};
use mdm_relational::{ExecOptions, Executor, Layout, MemoryCatalog, Table, Value};

#[test]
fn row_layout_runs_no_columnar_code() {
    // Names longer than 22 bytes are dictionary-encoded by the columnar
    // plane, so its run must grow the term dictionary.
    let team = |n: i64| Value::str(format!("a team name past the inline limit #{n}"));
    let mut catalog = MemoryCatalog::new();
    catalog.register(
        "p",
        Table::new(
            Schema::qualified("p", ["id", "team"]),
            (0..40)
                .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
                .collect(),
        )
        .unwrap(),
    );
    catalog.register(
        "t",
        Table::new(
            Schema::qualified("t", ["id", "name"]),
            (0..5).map(|i| vec![Value::Int(i), team(i % 3)]).collect(),
        )
        .unwrap(),
    );
    let plan = Plan::scan("p")
        .join(
            Plan::scan("t"),
            vec![(
                ColumnRef::qualified("p", "team"),
                ColumnRef::qualified("t", "id"),
            )],
        )
        .filter(Expr::col("p.id").binary(BinOp::Gt, Expr::lit(3i64)))
        .project_named(&[("t.name", "name")])
        .distinct();
    let run = |layout| {
        let options = ExecOptions {
            layout,
            ..ExecOptions::default()
        };
        Executor::with_options(&catalog, options)
            .run(&plan)
            .unwrap()
    };
    let counters = || (metrics::snapshot().columnar, columnar::dict_stats());

    let before = counters();
    let row = run(Layout::Row);
    assert_eq!(counters(), before, "the row plane touched columnar state");

    let col = run(Layout::Columnar);
    let after = counters();
    assert!(
        after.0.kernel_invocations > before.0.kernel_invocations
            && after.0.encodes > before.0.encodes
            && after.1.entries > before.1.entries,
        "the counters this test compares are dead: {before:?} -> {after:?}"
    );
    assert_eq!(row, col);
    assert_eq!(row.len(), 3);
}
