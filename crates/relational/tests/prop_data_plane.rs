//! Byte-identity oracle for the zero-copy data plane.
//!
//! The interned-string + shared-batch execution path must be observationally
//! identical to naive row-at-a-time relational algebra. This file implements
//! an independent reference interpreter over [`Plan`] — nested-loop joins in
//! probe × build order, first-occurrence distinct, branch-order union —
//! and property-checks that [`Executor::run`] renders the
//! exact same table under the parallel path, the sequential path, and a
//! spread of batch widths (including width 1, the degenerate row-at-a-time
//! drain).
//!
//! Random data deliberately mixes inline strings (≤ 22 bytes, stored in the
//! `Sym` small-string buffer), long strings (pooled `Arc<str>`), NULLs, and
//! Int/Float join keys that only match under numeric coercion.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use mdm_relational::algebra::Plan;
use mdm_relational::expr::{BinOp, Expr};
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::{ExecOptions, Executor, MemoryCatalog, Table, Value};

type Tuple = Vec<Value>;

// ---------------------------------------------------------------------------
// Reference interpreter
// ---------------------------------------------------------------------------

/// Evaluates `plan` row-at-a-time against in-memory tables. Mirrors the
/// engine's documented semantics exactly; shares no code with the physical
/// operators.
fn eval(plan: &Plan, tables: &HashMap<&str, Table>) -> Result<(Schema, Vec<Tuple>), String> {
    match plan {
        Plan::Scan { relation } => {
            let table = tables
                .get(relation.as_str())
                .ok_or_else(|| format!("unknown relation {relation}"))?;
            Ok((table.schema().clone(), table.rows().to_vec()))
        }
        Plan::Filter { input, predicate } => {
            let (schema, rows) = eval(input, tables)?;
            let mut out = Vec::new();
            for row in rows {
                if predicate.eval_predicate(&schema, &row).map_err(|e| e.0)? {
                    out.push(row);
                }
            }
            Ok((schema, out))
        }
        Plan::Project { input, columns } => {
            let (schema, rows) = eval(input, tables)?;
            let out_schema = Schema::new(columns.iter().map(|(_, name)| name.clone()).collect());
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut tuple = Vec::with_capacity(columns.len());
                for (expr, _) in columns {
                    tuple.push(expr.eval(&schema, &row).map_err(|e| e.0)?);
                }
                out.push(tuple);
            }
            Ok((out_schema, out))
        }
        Plan::Join { left, right, on } => {
            let (left_schema, left_rows) = eval(left, tables)?;
            let (right_schema, right_rows) = eval(right, tables)?;
            let schema = left_schema.concat(&right_schema);
            let left_keys: Vec<usize> = on
                .iter()
                .map(|(l, _)| left_schema.index_of(l))
                .collect::<Result<_, _>>()?;
            let right_keys: Vec<usize> = on
                .iter()
                .map(|(_, r)| right_schema.index_of(r))
                .collect::<Result<_, _>>()?;
            let mut out = Vec::new();
            // Probe × build order: each left row scans right rows in their
            // original order. NULL keys never match on either side.
            for left_row in &left_rows {
                if left_keys.iter().any(|&i| left_row[i].is_null()) {
                    continue;
                }
                for right_row in &right_rows {
                    if right_keys.iter().any(|&i| right_row[i].is_null()) {
                        continue;
                    }
                    if left_keys
                        .iter()
                        .zip(&right_keys)
                        .all(|(&l, &r)| left_row[l] == right_row[r])
                    {
                        let mut combined = left_row.clone();
                        combined.extend(right_row.iter().cloned());
                        out.push(combined);
                    }
                }
            }
            Ok((schema, out))
        }
        Plan::Union { inputs } => {
            let mut iter = inputs.iter();
            let first = iter.next().ok_or_else(|| "empty union".to_string())?;
            let (schema, mut rows) = eval(first, tables)?;
            for input in iter {
                let (s, r) = eval(input, tables)?;
                if s.len() != schema.len() {
                    return Err("union arms have different arities".to_string());
                }
                rows.extend(r);
            }
            Ok((schema, rows))
        }
        Plan::Distinct { input } => {
            let (schema, rows) = eval(input, tables)?;
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for row in rows {
                if seen.insert(row.clone()) {
                    out.push(row);
                }
            }
            Ok((schema, out))
        }
    }
}

fn reference(plan: &Plan, tables: &HashMap<&str, Table>) -> Result<Table, String> {
    let (schema, rows) = eval(plan, tables)?;
    Table::new(schema, rows)
}

// ---------------------------------------------------------------------------
// Random data: inline strings, pooled strings, NULLs, coercing numerics
// ---------------------------------------------------------------------------

/// Long join-key strings (> 22 bytes) take the shared intern-pool path.
const LONG_KEYS: [&str; 2] = [
    "player-registry-key-alpha-0001",
    "player-registry-key-omega-0002",
];
const SHORT_KEYS: [&str; 2] = ["x", "y"];

/// A join key: NULL, coercible Int/Float, inline string, or pooled string —
/// all from a small domain so joins actually hit.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        4 => (-3i64..3).prop_map(Value::Int),
        2 => (-3i64..3).prop_map(|i| Value::Float(i as f64)),
        2 => (0usize..SHORT_KEYS.len()).prop_map(|i| Value::str(SHORT_KEYS[i])),
        1 => (0usize..LONG_KEYS.len()).prop_map(|i| Value::str(LONG_KEYS[i])),
    ]
}

/// A payload string column mixing inline and pooled representations, with
/// repeats so distinct/dedup paths are exercised.
fn arb_text() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        3 => (0u8..4, 0usize..8).prop_map(|(c, len)| {
            Value::str(char::from(b'a' + c).to_string().repeat(len))
        }),
        2 => (0u8..3, 23usize..40).prop_map(|(c, len)| {
            Value::str(char::from(b'p' + c).to_string().repeat(len))
        }),
    ]
}

/// A random (k, s, v) table under the given relation qualifier.
fn arb_table(relation: &'static str) -> impl Strategy<Value = Table> {
    proptest::collection::vec((arb_key(), arb_text(), -20i64..20), 0..24).prop_map(move |rows| {
        Table::new(
            Schema::qualified(relation, ["k", "s", "v"]),
            rows.into_iter()
                .map(|(k, s, v)| vec![k, s, Value::Int(v)])
                .collect(),
        )
        .expect("arity matches")
    })
}

// ---------------------------------------------------------------------------
// Harness: engine under every execution mode vs. the reference
// ---------------------------------------------------------------------------

/// Runs `plan` under the parallel default, the sequential path, and batch
/// widths {1, 2, 1024}, asserting every rendering is byte-identical to the
/// reference interpretation.
fn check(plan: &Plan, tables: Vec<(&'static str, Table)>) -> Result<(), TestCaseError> {
    let mut catalog = MemoryCatalog::new();
    let mut map = HashMap::new();
    for (name, table) in tables {
        catalog.register(name, table.clone());
        map.insert(name, table);
    }
    let expected = reference(plan, &map).expect("reference interpretation succeeds");
    let modes: Vec<(&str, ExecOptions)> = vec![
        ("parallel", ExecOptions::default()),
        ("sequential", ExecOptions::sequential()),
        (
            "batch=1",
            ExecOptions {
                batch_size: 1,
                ..ExecOptions::default()
            },
        ),
        (
            "batch=2",
            ExecOptions {
                batch_size: 2,
                ..ExecOptions::sequential()
            },
        ),
        (
            "batch=1024",
            ExecOptions {
                batch_size: 1024,
                ..ExecOptions::default()
            },
        ),
    ];
    for (mode, options) in modes {
        let got = Executor::with_options(&catalog, options)
            .run(plan)
            .expect("engine execution succeeds");
        prop_assert_eq!(
            got.render(),
            expected.render(),
            "mode {} diverged from the reference interpreter",
            mode
        );
    }
    Ok(())
}

fn join_on_k() -> Vec<(ColumnRef, ColumnRef)> {
    vec![(
        ColumnRef::qualified("a", "k"),
        ColumnRef::qualified("b", "k"),
    )]
}

proptest! {
    /// σ and π over mixed inline/pooled/NULL data match the reference.
    #[test]
    fn filter_project_matches_reference(a in arb_table("a"), threshold in -20i64..20) {
        let plan = Plan::scan("a")
            .filter(Expr::col("a.v").binary(BinOp::Gt, Expr::lit(threshold)))
            .project_named(&[("a.s", "s"), ("a.k", "k"), ("a.v", "v")]);
        check(&plan, vec![("a", a)])?;
    }

    /// Hash joins (memoized key hashes, coercing Int/Float keys, NULL-key
    /// skips) match nested-loop probe × build order.
    #[test]
    fn join_matches_reference(a in arb_table("a"), b in arb_table("b")) {
        let plan = Plan::scan("a").join(Plan::scan("b"), join_on_k());
        check(&plan, vec![("a", a), ("b", b)])?;
    }

    /// Full UCQ shells — union (with duplicated branches exercising the
    /// common-subplan sharing) and distinct — match the reference, row
    /// order included.
    #[test]
    fn ucq_matches_reference(
        a in arb_table("a"),
        b in arb_table("b"),
        threshold in -20i64..20,
        duplicate_branches in any::<bool>(),
    ) {
        let join_branch = Plan::scan("a")
            .join(Plan::scan("b"), join_on_k())
            .filter(Expr::col("a.v").binary(BinOp::Gt, Expr::lit(threshold)))
            .project_named(&[("a.k", "k"), ("b.s", "s"), ("a.v", "v")]);
        let scan_branch = Plan::scan("a").project_named(&[("a.k", "k"), ("a.s", "s"), ("a.v", "v")]);
        let mut branches = vec![join_branch.clone(), scan_branch];
        if duplicate_branches {
            branches.push(join_branch.clone());
            branches.push(join_branch);
        }
        let plan = Plan::union(branches).distinct();
        check(&plan, vec![("a", a), ("b", b)])?;
    }

    /// Distinct over a self-union halves exact duplicates identically in
    /// every execution mode.
    #[test]
    fn distinct_matches_reference(a in arb_table("a")) {
        let plan = Plan::union(vec![Plan::scan("a"), Plan::scan("a")]).distinct();
        check(&plan, vec![("a", a)])?;
    }
}
