//! Byte-identity oracle for the data plane.
//!
//! The engine — fixed-width term encoding, interned strings, shared column
//! batches, vectorized kernels — must be observationally identical to
//! naive row-at-a-time relational algebra: same rows, same order, same
//! rendered bytes, same errors. This file property-checks [`Executor::run`]
//! against the reference interpreter (`support/reference.rs`) over random
//! plans and data, under the parallel path, the sequential path, and a
//! spread of batch widths (including width 1, the degenerate row-at-a-time
//! drain).
//!
//! Random data deliberately mixes inline strings (≤ 22 bytes, stored in the
//! `Sym` small-string buffer), long strings (an `Arc<str>` each, and so the
//! dictionary-id path of the term encoding), NULLs (which never match as
//! join keys), Int/Float join keys that only match under numeric coercion,
//! `-0.0` next to `0.0`, and NaN, which is not `==` to itself.

use proptest::prelude::*;

use mdm_relational::algebra::Plan;
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::{ExecOptions, Executor, MemoryCatalog, Table, Value};

#[path = "support/reference.rs"]
mod reference;

// ---------------------------------------------------------------------------
// Random data: inline strings, long strings, NULLs, coercing numerics
// ---------------------------------------------------------------------------

/// Long join-key strings (> 22 bytes) take the `Arc<str>` path.
const LONG_KEYS: [&str; 2] = [
    "player-registry-key-alpha-0001",
    "player-registry-key-omega-0002",
];
const SHORT_KEYS: [&str; 2] = ["x", "y"];

/// A join key: NULL, coercible Int/Float, signed zeros, NaN, inline string,
/// or long string — all from a small domain so joins actually hit.
fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        4 => (-3i64..3).prop_map(Value::Int),
        2 => (-3i64..3).prop_map(|i| Value::Float(i as f64)),
        1 => prop_oneof![Just(-0.0), Just(f64::NAN)].prop_map(Value::Float),
        2 => (0usize..SHORT_KEYS.len()).prop_map(|i| Value::str(SHORT_KEYS[i])),
        1 => (0usize..LONG_KEYS.len()).prop_map(|i| Value::str(LONG_KEYS[i])),
    ]
}

/// A payload string column mixing inline and long representations, with
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
// Harness: the engine, under every execution mode, vs. the reference
// ---------------------------------------------------------------------------

/// The execution modes the engine runs under: the parallel default, the
/// sequential path, and batch widths {1, 2, 1024}.
fn modes() -> Vec<(&'static str, ExecOptions)> {
    vec![
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
    ]
}

/// Runs `plan` once under the reference interpreter and under the engine in
/// every mode, asserting every rendering is byte-identical to the
/// reference's — and that errors, when they happen, carry identical
/// messages.
fn check(plan: &Plan, tables: Vec<(&'static str, Table)>) -> Result<(), TestCaseError> {
    let mut catalog = MemoryCatalog::new();
    for (name, table) in tables {
        catalog.register(name, table);
    }
    let expected = reference::run(plan, &catalog);
    for (mode, options) in modes() {
        let got = Executor::with_options(&catalog, options).run(plan);
        match (&expected, got) {
            (Ok(expected), Ok(got)) => prop_assert_eq!(
                got.render(),
                expected.render(),
                "mode {} diverged from the reference interpreter",
                mode
            ),
            (Err(expected), Err(got)) => prop_assert_eq!(
                got.to_string(),
                expected.to_string(),
                "mode {} failed unlike the reference interpreter",
                mode
            ),
            (expected, got) => prop_assert!(
                false,
                "mode {}: reference {:?} but engine {:?}",
                mode,
                expected.as_ref().map(Table::len),
                got.map(|t| t.len())
            ),
        }
    }
    Ok(())
}

fn column(relation: &str, name: &str) -> ColumnRef {
    ColumnRef::qualified(relation, name)
}

fn join_on_k() -> Vec<(ColumnRef, ColumnRef)> {
    vec![(column("a", "k"), column("b", "k"))]
}

proptest! {
    /// σ equating two columns of one relation, and π, over mixed
    /// inline/long/NULL data match the reference.
    #[test]
    fn filter_project_matches_reference(a in arb_table("a")) {
        let plan = Plan::scan("a")
            .filter(column("a", "k"), column("a", "v"))
            .project_named(&[("a.s", "s"), ("a.k", "k"), ("a.v", "v")]);
        check(&plan, vec![("a", a)])?;
    }

    /// Hash joins (dictionary-id key comparison, coercing Int/Float keys,
    /// NULL-key skips) match nested-loop probe × build order.
    #[test]
    fn join_matches_reference(a in arb_table("a"), b in arb_table("b")) {
        let plan = Plan::scan("a").join(Plan::scan("b"), join_on_k());
        check(&plan, vec![("a", a), ("b", b)])?;
    }

    /// σ over a cross product keeps the pairs whose keys are equal: the
    /// join's rows, in probe × build order, by a column comparison
    /// instead of a hash probe.
    #[test]
    fn cross_join_equality_matches_reference(a in arb_table("a"), b in arb_table("b")) {
        let plan = Plan::scan("a")
            .join(Plan::scan("b"), vec![])
            .filter(column("a", "k"), column("b", "k"))
            .project_named(&[("b.s", "s"), ("a.k", "k"), ("b.k", "bk")]);
        check(&plan, vec![("a", a), ("b", b)])?;
    }

    /// A UCQ's branch plans — a join and a scan — match the reference,
    /// row order included, bare and under δ (π drops `v`, so δ meets
    /// duplicates).
    #[test]
    fn ucq_matches_reference(
        a in arb_table("a"),
        b in arb_table("b"),
    ) {
        let join_branch = Plan::scan("a")
            .join(Plan::scan("b"), join_on_k())
            .filter(column("a", "v"), column("b", "v"))
            .project_named(&[("a.k", "k"), ("b.s", "s")]);
        let scan_branch = Plan::scan("a").project_named(&[("a.k", "k"), ("a.s", "s")]);
        for branch in [join_branch, scan_branch] {
            check(&branch, vec![("a", a.clone()), ("b", b.clone())])?;
            check(&branch.distinct(), vec![("a", a.clone()), ("b", b.clone())])?;
        }
    }

    /// First-occurrence distinct over a relation holding every row twice
    /// dedups identically in every execution mode: term-id equality must
    /// be `Value` equality for every encoding (NaN, -0.0, coerced
    /// Int/Float, inline vs long strings).
    #[test]
    fn distinct_matches_reference(a in arb_table("a")) {
        let twice = Table::new(a.schema().clone(), [a.rows(), a.rows()].concat()).unwrap();
        check(&Plan::scan("a").distinct(), vec![("a", twice)])?;
    }
}
