//! `plan_for_cq`'s σ: a join condition whose two columns come from one
//! atom never becomes a join key, because no later atom joins the tree
//! through it. It closes over the atom already scanned and becomes a column
//! equality. This pins its rendering and holds its execution to the
//! relational crate's reference interpreter, over the key domain the data
//! plane's oracles use: NULL, NaN, `-0.0`, Int/Float coercion, short and
//! long strings.

use mdm_core::inter::ConjunctiveQuery;
use mdm_core::rewrite::plan_for_cq;
use mdm_rdf::Iri;
use mdm_relational::schema::Schema;
use mdm_relational::{ExecOptions, Executor, MemoryCatalog, Table, Value};

#[path = "../../relational/tests/support/reference.rs"]
mod reference;

/// `a(x, y)` with one condition `a.x = a.y`, projecting `a.x` as `f`.
fn self_equality() -> ConjunctiveQuery {
    ConjunctiveQuery {
        atoms: vec!["a".to_string()],
        joins: vec![(
            ("a".to_string(), "x".to_string()),
            ("a".to_string(), "y".to_string()),
        )],
        projections: vec![(
            Iri::new(format!("{}f", mdm_rdf::vocab::EXAMPLE_NS)),
            ("a".to_string(), "x".to_string()),
        )],
    }
}

/// Every pair of keys from the oracles' domain, in both orders.
fn keys() -> Table {
    let long = "a join key comfortably longer than the inline capacity";
    let domain = [
        Value::Null,
        Value::Int(1),
        Value::Float(1.0),
        Value::Int(0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::str("x"),
        Value::str(long),
    ];
    let rows = domain
        .iter()
        .flat_map(|x| domain.iter().map(move |y| vec![x.clone(), y.clone()]))
        .collect();
    Table::new(Schema::qualified("a", ["x", "y"]), rows).unwrap()
}

#[test]
fn a_condition_within_one_atom_is_a_column_equality() {
    let plan = plan_for_cq(&self_equality(), &["f".to_string()]).unwrap();
    assert_eq!(plan.to_string(), "π[a.x→f](σ[a.x = a.y](a))");

    let mut catalog = MemoryCatalog::new();
    catalog.register("a", keys());
    let expected = reference::run(&plan, &catalog).unwrap();
    // Int(1) = Float(1.0) both ways, 0 = -0.0 both ways, and each
    // non-NULL, non-NaN key with itself: 4 + 4 + 2 rows.
    assert_eq!(expected.len(), 10, "{}", expected.render());
    for batch_size in [1, 2, 1024] {
        let options = ExecOptions {
            batch_size,
            ..ExecOptions::sequential()
        };
        let got = Executor::with_options(&catalog, options)
            .run(&plan)
            .unwrap();
        assert_eq!(got.render(), expected.render(), "batch size {batch_size}");
    }
}
