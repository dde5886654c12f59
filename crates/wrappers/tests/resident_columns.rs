//! A wrapper's resident term columns are its rows, and `columns()` is the
//! same fetch as `rows()`: one fate drawn, one `fetch_count` bump, the
//! same outcome. `rows()` parses the whole payload into a document,
//! flattens it and types it afresh on every call and keeps nothing, so it
//! is the independent view the release streamed into columns is held to.
//!
//! Every test takes [`serial`]: one of them counts the process-wide term
//! dictionary's entries, which any concurrent fill would move.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use mdm_relational::columnar::dict_stats;
use mdm_relational::{
    Catalog, ExecError, ExecOptions, Executor, Plan, RelationProvider, RetryPolicy, Tuple,
};
use mdm_wrappers::{
    football, FaultPlan, Format, Release, Signature, Wrapper, WrapperCatalog, WrapperError,
};
use proptest::prelude::*;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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

/// `columns()` and `rows()` of one wrapper agree: the same rows cell for
/// cell, or the same error.
fn assert_same_outcome(w: &Wrapper, what: &str) {
    match (w.rows(), w.columns()) {
        (Ok(rows), Ok((_, len))) => {
            assert_eq!(len, rows.len(), "{what}: row count");
            let decoded = decoded_columns(w).unwrap();
            assert_eq!(exact(&decoded), exact(&rows), "{what}");
        }
        (Err(by_rows), Err(by_columns)) => assert_eq!(by_columns, by_rows, "{what}"),
        (rows, columns) => panic!("{what}: rows() gave {rows:?}, columns() {columns:?}"),
    }
}

/// `base` over `body` instead of its release's own.
fn with_body(base: &Wrapper, body: &str) -> Wrapper {
    Wrapper::over_release(
        base.signature().clone(),
        base.source(),
        Release {
            body: body.to_string(),
            ..base.release().clone()
        },
        base.bindings().iter().cloned(),
    )
    .unwrap()
}

/// Columns the generated documents' rows can carry — flat, nested and
/// colliding names, the bare-scalar column — and one none does.
const BINDINGS: &[(&str, &str)] = &[
    ("x0", "a"),
    ("x1", "b"),
    ("x2", "c"),
    ("x3", "a_b"),
    ("x4", "b_a"),
    ("x5", "a_a"),
    ("x6", "a_b_a"),
    ("x7", "value"),
    ("x8", "missing"),
];

/// JSON scalars as text: strings that look like numbers or bools, escapes,
/// an i64 overflow and floats that print as digit strings.
const SCALARS: &[&str] = &[
    "null",
    "true",
    "false",
    "0",
    "-0",
    "159",
    "-12",
    "170.18",
    "1.0",
    "-0.0",
    "1e5",
    "-2.5E-1",
    "9223372036854775807",
    "9223372036854775808",
    "1e300",
    "1e400",
    r#""123""#,
    r#""1.0""#,
    r#""-0""#,
    r#""1e5""#,
    r#""true""#,
    r#""9223372036854775808""#,
    r#""007""#,
    r#""""#,
    r#""left""#,
    r#""a\"b\\c\nd""#,
    r#""\u00e9\ud83d\ude00\/""#,
    r#""a much longer string cell than the inline representation holds""#,
];

fn one_of(items: &'static [&'static str]) -> BoxedStrategy<String> {
    (0..items.len()).prop_map(move |i| items[i].to_string())
}

/// JSON documents as text: objects with keys drawn from a few names (so
/// keys repeat and nested names collide with flat ones), arrays (empty,
/// unnesting, of arrays) and scalars, at any depth and at the top.
fn json_document() -> impl Strategy<Value = String> {
    let value = one_of(SCALARS).prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            1 => inner.clone(),
            2 => proptest::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| format!("[{}]", items.join(","))),
            3 => proptest::collection::vec((one_of(&["a", "b", "c", "a_b"]), inner), 0..5)
                .prop_map(|fields| {
                    let fields: Vec<String> =
                        fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
                    format!("{{{}}}", fields.join(","))
                }),
        ]
    });
    prop_oneof![
        3 => proptest::collection::vec(value.clone(), 0..6)
            .prop_map(|records| format!("[{}]", records.join(","))),
        1 => value,
    ]
}

/// One document per shape the stream and the flattener must agree on.
const DOCUMENTS: &[&str] = &[
    // Nested objects, and a nested name colliding with a flat one: the
    // later key in sorted order wins.
    r#"[{"a":{"b":1,"a":"x"},"a_b":2},{"a_b":3,"b":{"a":4}}]"#,
    // Two arrays unnesting in one object, an empty array keeping its row.
    r#"[{"a":[{"b":1},{"b":2}],"b":[{"a":"x"},{"a":"y"},{"a":"z"}],"c":[]}]"#,
    r#"{"a":[],"c":5}"#,
    // Top-level scalars and arrays of arrays.
    "42",
    r#""1e5""#,
    "[[1,[2,3]],[],4]",
    // Duplicate keys: the parser keeps the last.
    r#"[{"a":1,"a":"2","b":null,"b":true}]"#,
    // Strings that look like numbers or bools, and escapes.
    r#"[{"a":"123","b":"1.0","c":"-0"},{"a":"1e5","b":"true","c":"9223372036854775808"},{"a":"a\"b\\c\u00e9"}]"#,
    // Floats that print as digit strings, an overflowing int.
    "[1e300,1e15,9223372036854775808,-0.0]",
];

fn json_wrapper(body: &str) -> Wrapper {
    wrapper("p", release(Format::Json, body), BINDINGS)
}

#[test]
fn columns_equal_rows_on_every_json_shape() {
    let _serial = serial();
    for document in DOCUMENTS {
        assert_same_outcome(&json_wrapper(document), document);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn columns_equal_rows_on_generated_json(document in json_document()) {
        let _serial = serial();
        assert_same_outcome(&json_wrapper(&document), &document);
    }
}

/// Every prefix of the JSON, XML and CSV fixtures and of the documents
/// above — a body cut short in transit — gives `columns()` and `rows()`
/// the same error text, or the same rows.
#[test]
fn a_body_cut_at_any_byte_gives_both_views_the_same_outcome() {
    let _serial = serial();
    let eco = football::build_default();
    let mut bases = vec![
        football::w1_players_v1(&eco),
        football::w2_teams(&eco),
        football::w5_countries(&eco),
    ];
    bases.extend(DOCUMENTS.iter().map(|document| json_wrapper(document)));
    for base in &bases {
        let body = &base.release().body;
        for cut in (0..=body.len()).filter(|&cut| body.is_char_boundary(cut)) {
            assert_same_outcome(
                &with_body(base, &body[..cut]),
                &format!("{} cut at {cut}", base.name()),
            );
        }
    }
}

/// A truncated (malformed) JSON body interns nothing the clean payload
/// would not: the dictionary holds as many entries after a truncated fetch
/// and then a clean one as after the clean fetch alone. Each cut gets
/// strings of its own (a nonce), so "the clean fetch alone" is the same
/// count every time. A top-level number is the trap: cut short, it is
/// still a number (`{nonce}1e30` of `{nonce}1e300`), and one whose text
/// reads as a string (a float printed as a run of digits) would intern it.
#[test]
fn a_truncated_body_interns_only_what_the_clean_payload_would() {
    let _serial = serial();
    let payload = |nonce: usize| {
        format!(
            r#"[{{"id":1,"name":"n{nonce}-messi","team":{{"name":"t{nonce}-fcb"}}}},{nonce}1e300,{{"id":2,"name":"n{nonce}-\u00e9\"q","tags":["x{nonce}","y{nonce}"]}},"s{nonce}-last",9223372036854775808]"#
        )
    };
    let bindings = [
        ("id", "id"),
        ("name", "name"),
        ("team", "team_name"),
        ("tag", "tags"),
        ("value", "value"),
    ];
    let fill = |body: &str| wrapper("d", release(Format::Json, body), &bindings).columns();
    let entries = || dict_stats().entries;

    // The string every nonce shares (the overflowing int's digits) goes in
    // first.
    fill(&payload(1)).unwrap();
    let before = entries();
    fill(&payload(2)).unwrap();
    let clean_alone = entries() - before;
    assert_eq!(clean_alone, 7, "seven strings carry the nonce");

    let body_len = payload(3).len();
    for cut in 0..body_len {
        let body = payload(3 + cut);
        let before = entries();
        let truncated = fill(&body[..cut]);
        assert!(
            matches!(truncated, Err(WrapperError::Malformed(_))),
            "cut at {cut}: {truncated:?}"
        );
        fill(&body).unwrap();
        assert_eq!(
            entries() - before,
            clean_alone,
            "cut at {cut}: {}",
            &body[..cut]
        );
    }
}
