//! Byte-identity oracle for the columnar kernels against the row plane.
//!
//! The fixed-width term encoding and vectorized kernels must be
//! observationally identical to row-at-a-time evaluation: same rows, same
//! order, same rendered bytes, same errors. The row plane is the
//! tuple-at-a-time reference interpreter (`support/reference.rs`), which
//! shares no code with the engine. This file property-checks
//! [`Executor::run`] against it over random plans and data — NULLs (which
//! never match as join keys), Int/Float keys that only join under numeric
//! coercion, `-0.0` next to `0.0`, NaN, inline (≤ 22 byte) and long
//! (`Arc<str>`) strings — under batch widths {1, 2, 1024} and both the
//! parallel and the sequential drain (the row plane has no modes of its
//! own).

use proptest::prelude::*;

use mdm_relational::algebra::Plan;
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::{ExecOptions, Executor, MemoryCatalog, Table, Value};

#[path = "support/reference.rs"]
mod reference;

// ---------------------------------------------------------------------------
// Random data: inline strings, long strings, NULLs, coercing numerics
// ---------------------------------------------------------------------------

/// Long join-key strings (> 22 bytes) take the `Arc<str>` path and
/// therefore the dictionary-id fast path in the columnar kernels.
const LONG_KEYS: [&str; 2] = [
    "columnar-dictionary-key-alpha-0001",
    "columnar-dictionary-key-omega-0002",
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
/// repeats so distinct paths dedup across the two encodings.
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
// Harness: the columnar kernels, under every execution mode, vs. the row plane
// ---------------------------------------------------------------------------

/// The execution modes the engine runs under. The row plane has none: it
/// evaluates one tuple at a time on the calling thread whatever the batch
/// width or pool.
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

/// Runs `plan` once under the row plane (the oracle) and under the engine
/// over parallel/sequential drains and batch widths {1, 2, 1024}, asserting
/// every rendering is byte-identical to the row plane's — and that errors,
/// when they happen, carry identical messages.
fn check(plan: &Plan, tables: Vec<(&'static str, Table)>) -> Result<(), TestCaseError> {
    let mut catalog = MemoryCatalog::new();
    for (name, table) in tables {
        catalog.register(name, table);
    }
    let row = reference::run(plan, &catalog);
    for (mode, options) in modes() {
        let col = Executor::with_options(&catalog, options).run(plan);
        match (&row, col) {
            (Ok(row), Ok(col)) => prop_assert_eq!(
                col.render(),
                row.render(),
                "columnar diverged from row plane in mode {}",
                mode
            ),
            (Err(row), Err(col)) => prop_assert_eq!(
                col.to_string(),
                row.to_string(),
                "columnar error diverged from row plane in mode {}",
                mode
            ),
            (row, col) => prop_assert!(
                false,
                "mode {}: row plane {:?} but columnar {:?}",
                mode,
                row.as_ref().map(Table::len),
                col.map(|t| t.len())
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
    /// σ equating two columns of one relation, and π, match the row
    /// plane byte for byte.
    #[test]
    fn filter_project_matches_row_plane(a in arb_table("a")) {
        let plan = Plan::scan("a")
            .filter(column("a", "k"), column("a", "v"))
            .project_named(&[("a.s", "s"), ("a.k", "k"), ("a.v", "v")]);
        check(&plan, vec![("a", a)])?;
    }

    /// π repeats and renames columns like the row plane; a column the
    /// input lacks fails the plan with the row plane's error, empty input
    /// or not.
    #[test]
    fn projection_matches_row_plane(a in arb_table("a"), missing in any::<bool>()) {
        let mut columns = vec![
            (column("a", "v"), ColumnRef::bare("v1")),
            (column("a", "k"), ColumnRef::bare("k")),
            (column("a", "v"), ColumnRef::bare("v2")),
        ];
        if missing {
            columns.push((column("a", "w"), ColumnRef::bare("w")));
        }
        let plan = Plan::scan("a")
            .filter(column("a", "k"), column("a", "v"))
            .project(columns);
        check(&plan, vec![("a", a)])?;
    }

    /// Hash joins — dictionary-id key comparison, coercing Int/Float keys,
    /// NULL-key skips, probe × build emission order — match the row-plane
    /// join exactly.
    #[test]
    fn join_matches_row_plane(a in arb_table("a"), b in arb_table("b")) {
        let plan = Plan::scan("a").join(Plan::scan("b"), join_on_k());
        check(&plan, vec![("a", a), ("b", b)])?;
    }

    /// σ over a cross product keeps the pairs whose keys are equal: the
    /// join's rows, in probe × build order, by a column comparison
    /// instead of a hash probe.
    #[test]
    fn cross_join_equality_matches_row_plane(a in arb_table("a"), b in arb_table("b")) {
        let plan = Plan::scan("a")
            .join(Plan::scan("b"), vec![])
            .filter(column("a", "k"), column("b", "k"))
            .project_named(&[("b.s", "s"), ("a.k", "k"), ("b.k", "bk")]);
        check(&plan, vec![("a", a), ("b", b)])?;
    }

    /// A UCQ's branch plans under δ render identically on both planes,
    /// row order included: δ keeps first occurrences (π drops `v`, so it
    /// meets duplicates).
    #[test]
    fn ucq_matches_row_plane(
        a in arb_table("a"),
        b in arb_table("b"),
    ) {
        let join_branch = Plan::scan("a")
            .join(Plan::scan("b"), join_on_k())
            .filter(column("a", "v"), column("b", "v"))
            .project_named(&[("a.k", "k"), ("b.s", "s")]);
        let scan_branch = Plan::scan("a").project_named(&[("a.k", "k"), ("a.s", "s")]);
        for branch in [join_branch, scan_branch] {
            check(&branch.distinct(), vec![("a", a.clone()), ("b", b.clone())])?;
        }
    }

    /// First-occurrence distinct over a relation holding every row twice
    /// dedups identically: term-id equality must match Value equality for
    /// every encoding (NaN, -0.0, coerced Int/Float, inline vs long
    /// strings).
    #[test]
    fn distinct_matches_row_plane(a in arb_table("a")) {
        let twice = Table::new(a.schema().clone(), [a.rows(), a.rows()].concat()).unwrap();
        check(&Plan::scan("a").distinct(), vec![("a", twice)])?;
    }
}
