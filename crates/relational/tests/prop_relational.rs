//! Property tests for the relational engine: algebraic laws of the physical
//! operators and semantics preservation by the optimizer.

use proptest::prelude::*;

use mdm_relational::algebra::Plan;
use mdm_relational::optimizer::{Optimizer, Statistics};
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::{Catalog, Executor, MemoryCatalog, Table, Value};

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

fn catalog(a: Table, b: Table) -> MemoryCatalog {
    let mut catalog = MemoryCatalog::new();
    catalog.register("a", a);
    catalog.register("b", b);
    catalog
}

/// Projects a result to a sorted multiset of strings for order-insensitive
/// comparison.
fn canonical(table: &Table, columns: &[&str]) -> Vec<Vec<String>> {
    let indexes: Vec<usize> = columns
        .iter()
        .map(|c| table.schema().index_of(&ColumnRef::parse(c)).unwrap())
        .collect();
    let mut rows: Vec<Vec<String>> = table
        .rows()
        .iter()
        .map(|row| indexes.iter().map(|&i| row[i].to_string()).collect())
        .collect();
    rows.sort();
    rows
}

proptest! {
    /// Join is commutative (modulo column order).
    #[test]
    fn join_commutes(a in arb_table("a"), b in arb_table("b")) {
        let catalog = catalog(a, b);
        let executor = Executor::new(&catalog);
        let ab = Plan::scan("a").join(
            Plan::scan("b"),
            vec![(ColumnRef::qualified("a", "k"), ColumnRef::qualified("b", "k"))],
        );
        let ba = Plan::scan("b").join(
            Plan::scan("a"),
            vec![(ColumnRef::qualified("b", "k"), ColumnRef::qualified("a", "k"))],
        );
        let left = executor.run(&ab).unwrap();
        let right = executor.run(&ba).unwrap();
        prop_assert_eq!(
            canonical(&left, &["a.k", "a.v", "b.v"]),
            canonical(&right, &["a.k", "a.v", "b.v"])
        );
    }

    /// |A ⋈ B| equals the sum over keys of |A_k|·|B_k|.
    #[test]
    fn join_cardinality_formula(a in arb_table("a"), b in arb_table("b")) {
        use std::collections::HashMap;
        let mut a_hist: HashMap<i64, usize> = HashMap::new();
        for row in a.rows() {
            if let Value::Int(k) = row[0] {
                *a_hist.entry(k).or_default() += 1;
            }
        }
        let mut expected = 0usize;
        for row in b.rows() {
            if let Value::Int(k) = row[0] {
                expected += a_hist.get(&k).copied().unwrap_or(0);
            }
        }
        let catalog = catalog(a, b);
        let plan = Plan::scan("a").join(
            Plan::scan("b"),
            vec![(ColumnRef::qualified("a", "k"), ColumnRef::qualified("b", "k"))],
        );
        let result = Executor::new(&catalog).run(&plan).unwrap();
        prop_assert_eq!(result.len(), expected);
    }

    /// Distinct is idempotent and ≤ input, over a relation holding a's
    /// rows followed by b's.
    #[test]
    fn union_and_distinct_laws(a in arb_table("a"), b in arb_table("b")) {
        let a_len = a.len();
        let b_len = b.len();
        let catalog = {
            let rows = [a.rows(), b.rows()].concat();
            let mut c = MemoryCatalog::new();
            c.register("a", Table::new(a.schema().clone(), rows).unwrap());
            c
        };
        let executor = Executor::new(&catalog);
        let all = executor.run(&Plan::scan("a")).unwrap();
        prop_assert_eq!(all.len(), a_len + b_len);
        let d1 = executor.run(&Plan::scan("a").distinct()).unwrap();
        let d2 = executor.run(&Plan::scan("a").distinct().distinct()).unwrap();
        prop_assert!(d1.len() <= all.len());
        prop_assert_eq!(d1.len(), d2.len());
    }

    /// σ commutes with itself and with its own operands swapped, and σ
    /// over a cross product is the equi-join on the same pair.
    #[test]
    fn filter_laws(a in arb_table("a"), b in arb_table("b")) {
        let catalog = catalog(a, b);
        let executor = Executor::new(&catalog);
        let (ak, av) = (ColumnRef::qualified("a", "k"), ColumnRef::qualified("a", "v"));
        let (bk, bv) = (ColumnRef::qualified("b", "k"), ColumnRef::qualified("b", "v"));
        let cross = Plan::scan("a").join(Plan::scan("b"), vec![]);
        let joined = Plan::scan("a").join(Plan::scan("b"), vec![(ak.clone(), bk.clone())]);
        let keys = cross.clone().filter(ak.clone(), bk.clone());
        let seq = keys.clone().filter(av.clone(), bv.clone());
        let swapped = cross
            .filter(bv.clone(), av.clone())
            .filter(bk, ak);
        let on_join = joined.clone().filter(av, bv);
        let columns = ["a.k", "a.v", "b.k", "b.v"];
        let run = |plan: &Plan| canonical(&executor.run(plan).unwrap(), &columns);
        prop_assert_eq!(run(&keys), run(&joined));
        prop_assert_eq!(run(&seq), run(&swapped));
        prop_assert_eq!(run(&seq), run(&on_join));
    }

    /// The optimizer never changes results.
    #[test]
    fn optimizer_preserves_semantics(
        a in arb_table("a"),
        b in arb_table("b"),
    ) {
        let catalog = catalog(a, b);
        let resolve = |name: &str| catalog.relation_schema(name);
        let plan = Plan::scan("a")
            .join(
                Plan::scan("b"),
                vec![(ColumnRef::qualified("a", "k"), ColumnRef::qualified("b", "k"))],
            )
            .filter(ColumnRef::qualified("a", "k"), ColumnRef::qualified("a", "v"))
            .project(vec![
                (ColumnRef::qualified("a", "k"), ColumnRef::bare("k")),
                (ColumnRef::qualified("b", "v"), ColumnRef::bare("bv")),
            ]);
        struct NoStats;
        impl Statistics for NoStats {
            fn estimated_rows(&self, _relation: &str) -> Option<usize> {
                None
            }
        }
        let optimizer = Optimizer::new(&NoStats, &resolve);
        let optimized = optimizer.optimize(plan.clone());
        let executor = Executor::new(&catalog);
        let before = executor.run(&plan).unwrap();
        let after = executor.run(&optimized).unwrap();
        prop_assert_eq!(canonical(&before, &["k", "bv"]), canonical(&after, &["k", "bv"]));
    }

    /// `Table::sorted` (the order every MDM answer is rendered in) orders
    /// full rows under `Value`'s total order and keeps every row.
    #[test]
    fn sorted_table_laws(a in arb_table("a")) {
        let a_len = a.len();
        let catalog = {
            let mut c = MemoryCatalog::new();
            c.register("a", a);
            c
        };
        let sorted = Executor::new(&catalog)
            .run(&Plan::scan("a"))
            .unwrap()
            .sorted();
        prop_assert_eq!(sorted.len(), a_len);
        for pair in sorted.rows().windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
    }
}
