//! Edge-case tests for the relational engine: NULL semantics through whole
//! pipelines, empty inputs, duplicate-heavy joins, and plan-level errors.

use mdm_relational::algebra::Plan;
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::{ErrorKind, Executor, MemoryCatalog, Table, Value};

#[path = "support/reference.rs"]
mod reference;

fn register(catalog: &mut MemoryCatalog, name: &str, columns: &[&str], rows: Vec<Vec<Value>>) {
    catalog.register(
        name,
        Table::new(Schema::qualified(name, columns.to_vec()), rows).unwrap(),
    );
}

#[test]
fn empty_inputs_flow_through_every_operator() {
    let mut catalog = MemoryCatalog::new();
    register(&mut catalog, "e", &["k", "v"], vec![]);
    register(
        &mut catalog,
        "f",
        &["k", "v"],
        vec![vec![Value::Int(1), Value::str("x")]],
    );
    let executor = Executor::new(&catalog);
    let join = Plan::scan("e").join(
        Plan::scan("f"),
        vec![(
            ColumnRef::qualified("e", "k"),
            ColumnRef::qualified("f", "k"),
        )],
    );
    assert!(executor.run(&join).unwrap().is_empty());
    assert!(executor
        .run(&Plan::scan("e").distinct())
        .unwrap()
        .is_empty());
    let chained = Plan::scan("e")
        .filter(
            ColumnRef::qualified("e", "k"),
            ColumnRef::qualified("e", "v"),
        )
        .distinct()
        .project_named(&[("e.v", "out")]);
    assert!(executor.run(&chained).unwrap().is_empty());
}

#[test]
fn null_keys_never_join_but_null_payloads_pass_through() {
    let mut catalog = MemoryCatalog::new();
    register(
        &mut catalog,
        "l",
        &["k", "v"],
        vec![
            vec![Value::Null, Value::str("null-key")],
            vec![Value::Int(1), Value::Null],
        ],
    );
    register(
        &mut catalog,
        "r",
        &["k", "w"],
        vec![
            vec![Value::Null, Value::str("also-null")],
            vec![Value::Int(1), Value::str("matched")],
        ],
    );
    let plan = Plan::scan("l").join(
        Plan::scan("r"),
        vec![(
            ColumnRef::qualified("l", "k"),
            ColumnRef::qualified("r", "k"),
        )],
    );
    let table = Executor::new(&catalog).run(&plan).unwrap();
    // Only the k=1 pair joins; NULL=NULL does not.
    assert_eq!(table.len(), 1);
    assert!(table.rows()[0][1].is_null()); // the NULL payload survives
    assert_eq!(table.rows()[0][3], Value::str("matched"));
}

#[test]
fn duplicate_heavy_join_produces_cross_products_per_key() {
    let mut catalog = MemoryCatalog::new();
    let threes = vec![
        vec![Value::Int(7), Value::str("a")],
        vec![Value::Int(7), Value::str("b")],
        vec![Value::Int(7), Value::str("c")],
    ];
    register(&mut catalog, "x", &["k", "v"], threes.clone());
    register(&mut catalog, "y", &["k", "v"], threes);
    let plan = Plan::scan("x").join(
        Plan::scan("y"),
        vec![(
            ColumnRef::qualified("x", "k"),
            ColumnRef::qualified("y", "k"),
        )],
    );
    assert_eq!(Executor::new(&catalog).run(&plan).unwrap().len(), 9);
}

#[test]
fn multi_key_join_requires_all_keys() {
    let mut catalog = MemoryCatalog::new();
    register(
        &mut catalog,
        "a",
        &["k1", "k2", "v"],
        vec![
            vec![Value::Int(1), Value::Int(1), Value::str("both")],
            vec![Value::Int(1), Value::Int(2), Value::str("half")],
        ],
    );
    register(
        &mut catalog,
        "b",
        &["k1", "k2"],
        vec![vec![Value::Int(1), Value::Int(1)]],
    );
    let plan = Plan::scan("a").join(
        Plan::scan("b"),
        vec![
            (
                ColumnRef::qualified("a", "k1"),
                ColumnRef::qualified("b", "k1"),
            ),
            (
                ColumnRef::qualified("a", "k2"),
                ColumnRef::qualified("b", "k2"),
            ),
        ],
    );
    let table = Executor::new(&catalog).run(&plan).unwrap();
    assert_eq!(table.len(), 1);
    assert_eq!(table.rows()[0][2], Value::str("both"));
}

#[test]
fn deep_plan_nesting_executes() {
    let mut catalog = MemoryCatalog::new();
    // k = j on the first 30 rows only.
    register(
        &mut catalog,
        "base",
        &["k", "j"],
        (0..50)
            .map(|i| {
                let j = if i < 30 {
                    Value::Float(i as f64)
                } else {
                    Value::Int(i + 1)
                };
                vec![Value::Int(i), j]
            })
            .collect(),
    );
    // 20 stacked filters.
    let mut plan = Plan::scan("base");
    for _ in 0..20 {
        plan = plan.filter(ColumnRef::bare("k"), ColumnRef::bare("j"));
    }
    let table = Executor::new(&catalog).run(&plan).unwrap();
    assert_eq!(table.len(), 30);
}

#[test]
fn sorted_table_with_mixed_types_is_total() {
    let mut catalog = MemoryCatalog::new();
    register(
        &mut catalog,
        "mixed",
        &["v"],
        vec![
            vec![Value::str("z")],
            vec![Value::Int(5)],
            vec![Value::Null],
            vec![Value::Bool(true)],
            vec![Value::Float(2.5)],
        ],
    );
    let table = Executor::new(&catalog)
        .run(&Plan::scan("mixed"))
        .unwrap()
        .sorted();
    // Rank order: null < bool < numeric < string.
    assert!(table.rows()[0][0].is_null());
    assert_eq!(table.rows()[1][0], Value::Bool(true));
    assert_eq!(table.rows()[4][0], Value::str("z"));
}

/// No MDM plan produces a result without columns, and a column batch has
/// no shape for one: a scan of a zero-column relation and an empty
/// projection are the reference interpreter's permanent error.
#[test]
fn zero_width_plans_are_rejected_like_the_reference() {
    let mut catalog = MemoryCatalog::new();
    catalog.register(
        "void",
        Table::new(Schema::new(vec![]), vec![vec![], vec![]]).unwrap(),
    );
    register(&mut catalog, "t", &["k"], vec![vec![Value::Int(1)]]);
    for plan in [Plan::scan("void"), Plan::scan("t").project(vec![])] {
        let err = Executor::new(&catalog).run(&plan).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Permanent, "{plan}: {err}");
        assert_eq!(reference::run(&plan, &catalog).unwrap_err(), err, "{plan}");
    }
}

#[test]
fn table_render_handles_wide_values() {
    let table = Table::new(Schema::bare(["a"]), vec![vec![Value::str("x".repeat(200))]]).unwrap();
    let rendered = table.render();
    assert!(rendered.lines().nth(2).unwrap().len() >= 200);
}
