//! A wrapper's resident term columns are its rows, and `columns()` is the
//! same fetch as `rows()`: one fate drawn, one `fetch_count` bump, the
//! same outcome. `rows()` types the payload afresh on every call and keeps
//! nothing, so it is the independent view the encoded release is held to.

use std::sync::Arc;
use std::time::Duration;

use mdm_relational::{
    Catalog, ExecError, ExecOptions, Executor, Plan, RelationProvider, RetryPolicy, Tuple,
};
use mdm_wrappers::{
    football, FaultPlan, Format, Release, Signature, Wrapper, WrapperCatalog, WrapperError,
};

/// A catalog of exactly one borrowed wrapper — `WrapperCatalog::register`
/// would restamp the wrapper's fault plan with its own.
struct One<'w>(&'w Wrapper);

impl Catalog for One<'_> {
    fn provider(&self, name: &str) -> Option<&dyn RelationProvider> {
        (name == self.0.name()).then_some(self.0 as &dyn RelationProvider)
    }
}

/// One `columns()` fetch of `wrapper`, decoded the way a query decodes
/// it: a scan, no retries, no statistics.
fn decoded_columns(wrapper: &Wrapper) -> Result<Vec<Tuple>, ExecError> {
    let options = ExecOptions {
        retry: RetryPolicy::none(),
        stats: None,
        ..ExecOptions::sequential()
    };
    Executor::with_options(&One(wrapper), options)
        .run(&Plan::scan(wrapper.name()))
        .map(|table| table.into_rows())
}

/// `Value`'s equality coerces (`Int(1) == Float(1.0)`); the debug form
/// does not, so this is cell-for-cell identity.
fn exact(rows: &[Tuple]) -> String {
    format!("{rows:?}")
}

fn release(format: Format, body: &str) -> Release {
    Release {
        version: 1,
        format,
        body: body.to_string(),
        notes: String::new(),
    }
}

fn wrapper(name: &str, release: Release, bindings: &[(&str, &str)]) -> Wrapper {
    Wrapper::over_release(
        Signature::new(name, bindings.iter().map(|(a, _)| *a)).unwrap(),
        "S",
        release,
        bindings.iter().copied(),
    )
    .unwrap()
}

/// JSON, XML and CSV releases, dangling bindings and empty payloads.
fn wrappers() -> Vec<Wrapper> {
    let eco = football::build_default();
    vec![
        football::w1_players_v1(&eco),
        football::w2_teams(&eco),
        football::w3_players_v2(&eco),
        football::w5_countries(&eco),
        // `nationality` and `agent` dangle: the payload has neither.
        wrapper(
            "dangling",
            eco.players_api.release(1).unwrap().clone(),
            &[("id", "id"), ("nationality", "nationality"), ("agent", "agent")],
        ),
        // Mixed types in one column, an empty cell, a float next to an int.
        wrapper(
            "typed",
            release(
                Format::Csv,
                "id,score,note\n1,1.0,left\n2,1,\n3,true,007\n4,-0.0,a much longer string cell than the inline representation holds\n",
            ),
            &[("id", "id"), ("score", "score"), ("note", "note")],
        ),
        wrapper("empty_json", release(Format::Json, "[]"), &[("id", "id")]),
        wrapper("empty_csv", release(Format::Csv, "id,name\n"), &[("id", "id"), ("name", "name")]),
    ]
}

#[test]
fn resident_columns_decode_to_the_rows_cell_for_cell() {
    for w in wrappers() {
        let rows = w.rows().unwrap();
        let (columns, len) = w.columns().unwrap();
        assert_eq!(len, rows.len(), "{}: row count", w.name());
        assert_eq!(columns.len(), w.signature().arity(), "{}: width", w.name());
        let decoded = decoded_columns(&w).unwrap();
        assert_eq!(exact(&decoded), exact(&rows), "{}", w.name());
        // The second and third clean fetches handed out the first's columns.
        let (again, _) = w.columns().unwrap();
        assert!(Arc::ptr_eq(&columns, &again), "{}: not resident", w.name());
    }
}

#[test]
fn every_call_on_either_method_is_one_fetch() {
    let eco = football::build_default();
    let w = football::w1_players_v1(&eco);
    assert_eq!(w.fetch_count(), 0);
    w.columns().unwrap();
    assert_eq!(w.fetch_count(), 1);
    w.rows().unwrap();
    assert_eq!(w.fetch_count(), 2);
    w.columns().unwrap();
    assert_eq!(w.fetch_count(), 3);
    // The executor's scan is one `columns()` fetch.
    decoded_columns(&w).unwrap();
    assert_eq!(w.fetch_count(), 4);
    assert_eq!(w.resident_bytes(), Some(w.rows().unwrap().len() * 7 * 16));
    // The clone is the behaviour under test, not a copy to optimise away.
    #[allow(clippy::redundant_clone)]
    let fresh_clone = w.clone();
    assert_eq!(fresh_clone.resident_bytes(), None, "a clone starts cold");
}

/// One fetch's outcome with everything a caller can observe of it.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<usize, WrapperError>,
    attempts: u64,
    fetches: u64,
}

fn plan() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::seeded(0x5eed)
            .transient_window(1, 0.5)
            .transient_window(9, 0.2)
            .malformed_rate(0.3)
            .latency(Duration::from_millis(1), 0.3)
            .kill_after("w1", 24)
            .kill_after("w5", 24),
    )
}

#[test]
fn columns_and_rows_draw_the_same_fates_under_one_seeded_plan() {
    let eco = football::build_default();
    // JSON truncates into a parse error; CSV truncates into fewer rows.
    for base in [football::w1_players_v1(&eco), football::w5_countries(&eco)] {
        // Attempt counters live in the plan, per wrapper name: each side
        // polls its own copy of the same schedule.
        let (mut by_columns, mut by_rows) = (base.clone(), base.clone());
        by_columns.set_fault_plan(Some(plan()));
        by_rows.set_fault_plan(Some(plan()));
        let poll = |w: &Wrapper, result: Result<usize, WrapperError>| Outcome {
            result,
            attempts: w.fault_plan().unwrap().attempts(w.name()),
            fetches: w.fetch_count(),
        };
        let mut kinds = std::collections::BTreeSet::new();
        for call in 1..=30u64 {
            let columns = poll(&by_columns, by_columns.columns().map(|(_, len)| len));
            let rows = poll(&by_rows, by_rows.rows().map(|rows| rows.len()));
            assert_eq!(columns, rows, "{} call {call}", base.name());
            assert_eq!(columns.fetches, call, "one fetch per call");
            kinds.insert(match &columns.result {
                Ok(_) => "ok",
                Err(e) => e.kind(),
            });
        }
        let expected: &[&str] = match base.name() {
            "w1" => &["malformed", "ok", "permanent", "transient"],
            _ => &["ok", "permanent", "transient"],
        };
        assert_eq!(kinds.into_iter().collect::<Vec<_>>(), expected);
    }
}

#[test]
fn a_malformed_outcome_is_typed_fresh_and_never_memoised() {
    let eco = football::build_default();
    let truncating = || Some(Arc::new(FaultPlan::seeded(1).malformed_rate(1.0)));

    // JSON: the truncated body does not parse; the next clean fetch does.
    let mut json = football::w1_players_v1(&eco);
    json.set_fault_plan(truncating());
    for _ in 0..2 {
        let err = json.columns().unwrap_err();
        assert!(matches!(err, WrapperError::Malformed(_)), "{err}");
    }
    assert_eq!(json.resident_bytes(), None);
    json.set_fault_plan(None);
    let full = json.rows().unwrap().len();
    assert_eq!(json.columns().unwrap().1, full);

    // CSV: the truncated body parses — into fewer rows, the same ones
    // `rows()` types — and must not become the resident relation.
    let mut csv = football::w5_countries(&eco);
    let full = csv.rows().unwrap();
    let (resident, _) = csv.columns().unwrap();
    csv.set_fault_plan(truncating());
    let truncated = decoded_columns(&csv).unwrap();
    assert!(truncated.len() < full.len(), "truncation drops rows");
    let mut oracle = csv.clone();
    oracle.set_fault_plan(truncating());
    assert_eq!(exact(&truncated), exact(&oracle.rows().unwrap()));
    let (fresh, len) = csv.columns().unwrap();
    assert_eq!(len, truncated.len());
    assert!(!Arc::ptr_eq(&fresh, &resident));
    csv.set_fault_plan(None);
    let (clean, len) = csv.columns().unwrap();
    assert_eq!(len, full.len());
    assert!(
        Arc::ptr_eq(&clean, &resident),
        "clean columns stayed resident"
    );
}

/// A plan decides a fetch's fate, not the payload's content: attaching or
/// detaching one — on the wrapper or through the catalog, which restamps
/// every wrapper on `register` and `set_fault_plan` — keeps the memo.
#[test]
fn attaching_and_detaching_a_fault_plan_keeps_the_resident_columns() {
    let eco = football::build_default();
    let mut w = football::w2_teams(&eco);
    let (warm, _) = w.columns().unwrap();
    w.set_fault_plan(Some(Arc::new(FaultPlan::seeded(3).kill("w2"))));
    assert!(w.columns().is_err());
    w.set_fault_plan(None);
    assert!(Arc::ptr_eq(&w.columns().unwrap().0, &warm));

    let mut catalog = WrapperCatalog::new();
    catalog.set_fault_plan(Some(Arc::new(FaultPlan::seeded(3))));
    catalog.register(w); // pre-warmed
    assert!(Arc::ptr_eq(
        &catalog.get("w2").unwrap().columns().unwrap().0,
        &warm
    ));
    catalog.set_fault_plan(None);
    assert!(Arc::ptr_eq(
        &catalog.get("w2").unwrap().columns().unwrap().0,
        &warm
    ));
}
