//! The columnar hash join's build index: a single-key join takes the chain
//! index its build column owns, so a column set that stays resident across
//! queries (a wrapper release) is indexed once; a multi-key join builds a
//! private index per execution. Whichever index it probes, the join's
//! output — rows *and* emission order — is the reference interpreter's.
//!
//! `index_builds` is process-wide, so this file is a test binary of its
//! own and every test in it takes [`SERIAL`].

use std::sync::{Arc, Mutex, MutexGuard};

use mdm_relational::algebra::Plan;
use mdm_relational::scan_cache::EncodedScan;
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::{columnar, metrics};
use mdm_relational::{
    Catalog, ExecError, Executor, MemoryCatalog, RelationProvider, Table, Tuple, Value,
};

#[path = "support/reference.rs"]
mod reference;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A relation kept resident as term columns, the way a wrapper keeps its
/// release: every `columns()` hands out the same column set.
struct Resident {
    table: Table,
    columns: EncodedScan,
}

impl Resident {
    fn new(schema: Schema, rows: Vec<Tuple>) -> Resident {
        let columns = Arc::new(columnar::encode_rows(&rows, schema.len()));
        Resident {
            table: Table::new(schema, rows).unwrap(),
            columns,
        }
    }

    fn index_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.index_bytes()).sum()
    }
}

impl RelationProvider for Resident {
    fn provider_schema(&self) -> Schema {
        self.table.schema().clone()
    }

    fn columns(&self) -> Result<(EncodedScan, usize), ExecError> {
        Ok((Arc::clone(&self.columns), self.table.len()))
    }
}

struct Pair {
    l: Resident,
    r: Resident,
}

impl Pair {
    /// The same relations as plain tables, for the reference interpreter.
    fn tables(&self) -> MemoryCatalog {
        let mut tables = MemoryCatalog::new();
        tables.register("l", self.l.table.clone());
        tables.register("r", self.r.table.clone());
        tables
    }
}

impl Catalog for Pair {
    fn provider(&self, name: &str) -> Option<&dyn RelationProvider> {
        match name {
            "l" => Some(&self.l),
            "r" => Some(&self.r),
            _ => None,
        }
    }
}

fn f(x: f64) -> Value {
    Value::Float(x)
}

/// Keys the coercing `Value` equality treats specially — NULL, `Int(1)` vs
/// `Float(1.0)`, `-0.0` vs `0.0`, NaN — plus duplicate build keys, whose
/// matches must come out in build order. `k2` is a second key with NULLs
/// and duplicates of its own.
fn pair() -> Pair {
    let row = |k: Value, k2: Value, tag: &str| vec![k, k2, Value::str(tag)];
    let left = vec![
        row(Value::Int(1), Value::Int(7), "l-int1"),
        row(f(1.0), Value::Int(7), "l-float1"),
        row(Value::Null, Value::Int(7), "l-null"),
        row(f(-0.0), Value::Null, "l-negzero"),
        row(f(0.0), Value::Int(8), "l-zero"),
        row(Value::Int(0), Value::Int(8), "l-int0"),
        row(f(f64::NAN), Value::Int(7), "l-nan"),
        row(Value::str("a"), Value::str("x"), "l-a"),
        row(Value::Int(2), Value::Int(7), "l-unmatched"),
        row(Value::Int(1), Value::Int(8), "l-int1-again"),
    ];
    let right = vec![
        row(Value::Int(1), Value::Int(7), "r-int1"),
        row(f(1.0), Value::Int(8), "r-float1"),
        row(Value::Null, Value::Int(7), "r-null"),
        row(f(0.0), Value::Int(8), "r-zero"),
        row(f(-0.0), Value::Int(8), "r-negzero"),
        row(f(f64::NAN), Value::Int(7), "r-nan"),
        row(Value::Int(1), Value::Int(7), "r-int1-dup"),
        row(Value::str("a"), Value::str("x"), "r-a"),
        row(Value::str("a"), Value::Null, "r-a-nullk2"),
        row(Value::str("a"), Value::str("x"), "r-a-dup"),
    ];
    Pair {
        l: Resident::new(Schema::qualified("l", ["k", "k2", "tag"]), left),
        r: Resident::new(Schema::qualified("r", ["k", "k2", "tag"]), right),
    }
}

fn join_on(keys: &[&str]) -> Plan {
    Plan::scan("l").join(
        Plan::scan("r"),
        keys.iter()
            .map(|k| (ColumnRef::qualified("l", *k), ColumnRef::qualified("r", *k)))
            .collect(),
    )
}

fn run(catalog: &Pair, plan: &Plan) -> Table {
    Executor::new(catalog).run(plan).unwrap()
}

/// `Debug` tells `-0.0` from `0.0` and shows NaN, which `Value`'s
/// coercing `==` would not.
fn spelled(table: &Table) -> String {
    format!("{:?}", table.rows())
}

fn builds() -> u64 {
    metrics::snapshot().columnar.index_builds
}

#[test]
fn a_resident_build_column_is_indexed_once() {
    let _serial = serial();
    let catalog = pair();
    let single = join_on(&["k"]);
    assert_eq!(catalog.r.index_bytes(), 0);

    let before = builds();
    let first = run(&catalog, &single);
    assert_eq!(builds() - before, 1, "the first join fills r.k's index");
    let bytes = catalog.r.index_bytes();
    assert!(bytes > 0);
    assert_eq!(
        catalog.l.index_bytes(),
        0,
        "the probe side is never indexed"
    );

    let before = builds();
    let second = run(&catalog, &single);
    assert_eq!(builds(), before, "the second join reuses r.k's index");
    assert_eq!(catalog.r.index_bytes(), bytes);
    assert_eq!(spelled(&first), spelled(&second));

    // A two-key join indexes privately, every execution, and leaves the
    // columns' own indexes alone.
    let double = join_on(&["k", "k2"]);
    for _ in 0..2 {
        let before = builds();
        run(&catalog, &double);
        assert_eq!(builds() - before, 1);
    }
    assert_eq!(catalog.r.index_bytes(), bytes);
}

#[test]
fn b_indexed_joins_match_the_row_plane() {
    let _serial = serial();
    let catalog = pair();
    for keys in [&["k"][..], &["k2"], &["k", "k2"], &["k2", "k"]] {
        let plan = join_on(keys);
        let want = spelled(&reference::run(&plan, &catalog.tables()).unwrap());
        // The first run builds the index, the second probes the one the
        // column kept.
        for pass in 0..2 {
            let got = spelled(&run(&catalog, &plan));
            assert_eq!(got, want, "{keys:?}, pass {pass}");
        }
    }
    // Spot-check the semantics the comparison above relies on.
    let rows = run(&catalog, &join_on(&["k"]));
    let tags: Vec<String> = rows
        .rows()
        .iter()
        .map(|row| format!("{}~{}", row[2], row[5]))
        .collect();
    assert!(
        tags.contains(&"l-float1~r-int1-dup".to_string()),
        "{tags:?}"
    );
    assert!(tags.contains(&"l-negzero~r-zero".to_string()), "{tags:?}");
    assert!(
        !tags
            .iter()
            .any(|t| t.contains("nan") || t.starts_with("l-null~") || t.ends_with("~r-null")),
        "{tags:?}"
    );
    let int1: Vec<&String> = tags.iter().filter(|t| t.starts_with("l-int1~")).collect();
    assert_eq!(
        int1,
        ["l-int1~r-int1", "l-int1~r-float1", "l-int1~r-int1-dup"]
    );
}
