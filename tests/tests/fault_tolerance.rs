//! Fault-tolerance integration tests: deterministic fault injection on the
//! wrappers, retry/backoff absorption, degraded-mode federated execution
//! with completeness reports, circuit breakers in `/metrics`, server load
//! shedding (503 + `Retry-After`) and graceful drain on shutdown.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use mdm_core::usecase;
use mdm_core::Mdm;
use mdm_dataform::{json, Value};
use mdm_relational::{BreakerConfig, Deadline, RetryPolicy};
use mdm_server::{client, serve, ServerConfig};
use mdm_wrappers::football;
use mdm_wrappers::FaultPlan;

const FIG8_WALK: &str =
    "ex:Player { ex:playerName }\nsc:SportsTeam { ex:teamName }\nex:Player -ex:hasTeam-> sc:SportsTeam";

/// The evolved football system: v1 wrappers plus the breaking Players v2
/// release (wrapper `w3`), i.e. the system that produced Table 1.
fn evolved_mdm() -> Mdm {
    let eco = football::build_default();
    let mut mdm = usecase::football_mdm(&eco).unwrap();
    usecase::register_players_v2(&mut mdm, &eco).unwrap();
    mdm
}

/// A retry policy that never sleeps — keeps the suite fast while still
/// exercising the full attempt accounting.
fn instant_retries(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        jitter_seed: 0x7e57,
    }
}

fn table1_golden() -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .join("artifacts/table1_query_output.txt");
    std::fs::read_to_string(path).expect("checked-in Table 1 artifact")
}

fn walk_body() -> String {
    json::to_string(&Value::object([("walk", Value::string(FIG8_WALK))]))
}

// ---------------------------------------------------------------------
// (a) transient faults + retry reproduce the fault-free answer exactly
// ---------------------------------------------------------------------

#[test]
fn transient_faults_with_retry_reproduce_table1_byte_for_byte() {
    let mut mdm = evolved_mdm();
    // Every wrapper fails its first two fetch attempts, then recovers —
    // fully deterministic (rates are 0 or 1, no randomness involved).
    mdm.set_fault_plan(Some(Arc::new(
        FaultPlan::seeded(0xfa17)
            .transient_window(1, 1.0)
            .transient_window(3, 0.0),
    )));
    mdm.set_retry_policy(instant_retries(4));

    let answer = mdm
        .query_degraded(&usecase::figure8_walk(), Deadline::none())
        .expect("transient faults are absorbed by the retry policy");

    assert_eq!(
        answer.render(),
        table1_golden(),
        "the degraded-mode answer under transient faults must match Table 1"
    );
    assert!(answer.completeness.is_complete());
    // The UCQ has four branches: {playerName, hasTeam} each come from w1
    // or w3 independently, always joined with w2 for the team name.
    assert_eq!(answer.completeness.total_branches, 4);
    assert_eq!(answer.completeness.executed_branches, 4);
    // Two failed attempts per wrapper; w1, w2, w3 each pay them once
    // (attempt counters are per wrapper, shared across branches).
    assert_eq!(
        answer.completeness.retries,
        6,
        "{}",
        answer.completeness.summary()
    );
    assert!(
        answer
            .completeness
            .contributors
            .iter()
            .any(|c| c == "w3@v2"),
        "contributors name wrapper@version: {:?}",
        answer.completeness.contributors
    );
}

// ---------------------------------------------------------------------
// (b) a dead wrapper degrades the UCQ with an honest completeness report
//     and trips its circuit breaker (visible in /metrics)
// ---------------------------------------------------------------------

#[test]
fn dead_wrapper_degrades_with_completeness_report_and_open_breaker() {
    let mut mdm = evolved_mdm();
    mdm.set_fault_plan(Some(Arc::new(FaultPlan::seeded(7).kill("w3"))));
    mdm.set_retry_policy(RetryPolicy::none());
    // The per-query scan cache fetches w3 exactly once no matter how many
    // branches reference it, so one dead-wrapper query records exactly one
    // breaker failure; threshold 1 trips it at the end of the first query.
    mdm.set_breaker_config(BreakerConfig {
        failure_threshold: 1,
        cooldown: Duration::from_secs(60),
    });
    let walk = usecase::figure8_walk();
    let golden = table1_golden();

    let first = mdm.query_degraded(&walk, Deadline::none()).unwrap();
    assert!(!first.completeness.is_complete());
    // Only the pure-w1 branch survives; every w3-touching branch drops.
    assert_eq!(first.completeness.total_branches, 4);
    assert_eq!(first.completeness.executed_branches, 1);
    assert_eq!(first.completeness.dropped.len(), 3);
    for dropped in &first.completeness.dropped {
        assert!(
            dropped.wrappers.contains(&"w3@v2".to_string()),
            "dropped branch names the dead wrapper with its version: {dropped:?}"
        );
        assert_eq!(dropped.kind, "permanent");
        assert!(
            dropped.reason.contains("injected terminal fault"),
            "reason surfaces the underlying error: {}",
            dropped.reason
        );
    }
    assert!(first.completeness.summary().starts_with("PARTIAL"));

    // The surviving rows are exactly a subset of the fault-free Table 1:
    // w3's contribution (the only source of Zlatan Ibrahimovic) is gone.
    let golden_lines: BTreeSet<&str> = golden.lines().collect();
    for line in first.render().lines() {
        assert!(
            golden_lines.contains(line),
            "degraded answer invented a row: {line}"
        );
    }
    let rendered = first.render();
    assert!(rendered.contains("Lionel Messi"));
    assert!(!rendered.contains("Zlatan Ibrahimovic"));

    // The single (cached) failed fetch tripped the breaker during that
    // query — all three dropped branches shared one wrapper failure …
    let w3 = mdm
        .breaker_snapshots()
        .into_iter()
        .find(|b| b.relation == "w3")
        .expect("w3 breaker tracked");
    assert_eq!(w3.state, "open");
    assert_eq!(w3.failures_total, 1);

    // … so the next query is rejected at admission, without touching w3,
    // and admission rejections do not inflate the failure count.
    let second = mdm.query_degraded(&walk, Deadline::none()).unwrap();
    assert!(!second.completeness.is_complete());
    assert!(
        second
            .completeness
            .dropped
            .iter()
            .all(|d| d.reason.contains("circuit breaker open")),
        "open breaker short-circuits the scan: {:?}",
        second.completeness.dropped
    );
    let w3 = mdm
        .breaker_snapshots()
        .into_iter()
        .find(|b| b.relation == "w3")
        .expect("w3 breaker tracked");
    assert_eq!(w3.failures_total, 1);

    // The open breaker and the completeness report are visible over HTTP.
    let server = serve(ServerConfig::default(), mdm).unwrap();
    let metrics = client::get(server.addr(), "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let parsed = json::parse(&metrics.body).expect("metrics is JSON");
    let breakers = parsed
        .get("breakers")
        .and_then(Value::as_array)
        .expect("metrics exposes breakers");
    let w3_json = breakers
        .iter()
        .find(|b| b.get("relation").and_then(Value::as_str) == Some("w3"))
        .expect("w3 breaker in /metrics");
    assert_eq!(w3_json.get("state").and_then(Value::as_str), Some("open"));

    let answer = client::post_json(server.addr(), "/analyst/query", &walk_body()).unwrap();
    assert_eq!(answer.status, 200, "{}", answer.body);
    let parsed = json::parse(&answer.body).unwrap();
    let completeness = parsed.get("completeness").expect("completeness field");
    assert_eq!(
        completeness.get("complete").and_then(Value::as_bool),
        Some(false)
    );
    assert!(answer.body.contains("w3@v2"), "{}", answer.body);
    server.shutdown();
}

// ---------------------------------------------------------------------
// (c) a saturated server sheds load with 503 + Retry-After
// ---------------------------------------------------------------------

#[test]
fn saturated_server_sheds_503_with_retry_after() {
    let mut mdm = evolved_mdm();
    // Every fetch stalls 150ms, so one analyst query occupies the single
    // worker long enough to observe the queue filling up.
    mdm.set_fault_plan(Some(Arc::new(
        FaultPlan::seeded(3).latency(Duration::from_millis(150), 1.0),
    )));
    let config = ServerConfig {
        workers: 1,
        max_pending: 1,
        retry_after: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let server = serve(config, mdm).unwrap();
    let addr = server.addr();

    let slow = thread::spawn(move || client::post_json(addr, "/analyst/query", &walk_body()));
    thread::sleep(Duration::from_millis(150));
    // Fills the one queue slot while the worker is busy.
    let queued = thread::spawn(move || client::post_json(addr, "/analyst/query", &walk_body()));
    thread::sleep(Duration::from_millis(100));

    // Queue saturated: this connection is shed by the acceptor.
    let shed = client::get(addr, "/healthz").unwrap();
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("2"));
    assert!(shed.body.contains("saturated"), "{}", shed.body);

    // The in-flight and queued requests still complete normally.
    let slow = slow.join().unwrap().unwrap();
    assert_eq!(slow.status, 200, "{}", slow.body);
    let queued = queued.join().unwrap().unwrap();
    assert_eq!(queued.status, 200, "{}", queued.body);

    let metrics = client::get(addr, "/metrics").unwrap();
    let parsed = json::parse(&metrics.body).unwrap();
    let availability = parsed.get("availability").expect("availability section");
    let shed_total = availability
        .get("shed_total")
        .and_then(Value::as_number)
        .and_then(|n| n.as_i64())
        .unwrap();
    assert!(shed_total >= 1, "shed_total = {shed_total}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// (d) shutdown drains: in-flight requests complete, queued ones get 503
// ---------------------------------------------------------------------

#[test]
fn shutdown_drains_inflight_requests_and_sheds_queued_ones() {
    let mut mdm = evolved_mdm();
    mdm.set_fault_plan(Some(Arc::new(
        FaultPlan::seeded(9).latency(Duration::from_millis(200), 1.0),
    )));
    let config = ServerConfig {
        workers: 1,
        max_pending: 4,
        ..ServerConfig::default()
    };
    let server = serve(config, mdm).unwrap();
    let addr = server.addr();

    let inflight = thread::spawn(move || client::post_json(addr, "/analyst/query", &walk_body()));
    thread::sleep(Duration::from_millis(150));
    // Queued behind the busy worker; never reaches a worker before drain.
    let queued = thread::spawn(move || client::get(addr, "/healthz"));
    thread::sleep(Duration::from_millis(100));

    // Blocks until the acceptor stopped, the in-flight response was
    // written, the queue was drained and every worker joined.
    server.shutdown();

    let inflight = inflight.join().unwrap().expect("in-flight answered");
    assert_eq!(inflight.status, 200, "{}", inflight.body);
    assert!(inflight.body.contains("Lionel Messi"), "{}", inflight.body);

    let queued = queued.join().unwrap().expect("queued answered, not reset");
    assert_eq!(queued.status, 503, "{}", queued.body);
    assert!(queued.body.contains("shutting down"), "{}", queued.body);
    assert!(queued.header("retry-after").is_some());
}

// ---------------------------------------------------------------------
// (e) deadlines surface as timeouts (504 over HTTP)
// ---------------------------------------------------------------------

#[test]
fn expired_deadline_maps_to_gateway_timeout() {
    let mut mdm = evolved_mdm();
    let err = mdm
        .query_degraded(&usecase::figure8_walk(), Deadline::in_ms(0))
        .expect_err("zero budget cannot execute");
    assert_eq!(err.category(), "timeout");

    mdm.set_fault_plan(None);
    let config = ServerConfig {
        request_deadline: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let server = serve(config, mdm).unwrap();
    let response = client::post_json(server.addr(), "/analyst/query", &walk_body()).unwrap();
    assert_eq!(response.status, 504, "{}", response.body);
    assert!(response.body.contains("timeout"), "{}", response.body);
    server.shutdown();
}

// ---------------------------------------------------------------------
// (f) `trace` rides the served pipeline: the instance's pool, retry
//     policy, breakers and armed fault plan all apply to it
// ---------------------------------------------------------------------

#[test]
fn trace_absorbs_transient_faults_like_the_served_query() {
    let walk = usecase::figure8_walk();
    let clean = evolved_mdm().query_with_provenance(&walk).unwrap();
    assert_eq!(clean.table.len(), 35);

    let mut mdm = evolved_mdm();
    mdm.set_threads(4);
    // Every wrapper fails its first two fetch attempts, then recovers.
    mdm.set_fault_plan(Some(Arc::new(
        FaultPlan::seeded(0xfa17)
            .transient_window(1, 1.0)
            .transient_window(3, 0.0),
    )));
    mdm.set_retry_policy(instant_retries(4));
    let tasks_before = mdm.pool_stats().expect("pool attached").tasks_total;
    let traced = mdm
        .query_with_provenance(&walk)
        .expect("the instance's retry policy absorbs the transient faults");
    assert_eq!(traced.render(), clean.render());
    // It ran where the instance said to run: its pool fanned the branches
    // out and its breakers saw every wrapper exactly once.
    assert_eq!(
        mdm.pool_stats().expect("pool attached").tasks_total - tasks_before,
        traced.rewriting.branch_count() as u64
    );
    let breakers = mdm.breaker_snapshots();
    for name in ["w1", "w2", "w3"] {
        let breaker = breakers
            .iter()
            .find(|b| b.relation == name)
            .unwrap_or_else(|| panic!("trace bypassed the breaker of {name}"));
        assert_eq!(breaker.successes_total, 1, "{name}");
    }

    // The same faults with no retry budget are terminal for every branch,
    // and trace says so instead of retrying on a policy of its own.
    let mut mdm = evolved_mdm();
    mdm.set_threads(1);
    mdm.set_fault_plan(Some(Arc::new(
        FaultPlan::seeded(0xfa17)
            .transient_window(1, 1.0)
            .transient_window(3, 0.0),
    )));
    mdm.set_retry_policy(RetryPolicy::none());
    let err = mdm.query_with_provenance(&walk).unwrap_err();
    assert_eq!(err.category(), "execution", "{err}");
}

#[test]
fn trace_refuses_a_partial_answer() {
    // One dead version: the served query degrades and names it; provenance
    // over the remainder would silently hide that version, so trace errs.
    let walk = usecase::figure8_walk();
    let mut mdm = evolved_mdm();
    mdm.set_fault_plan(Some(Arc::new(FaultPlan::seeded(7).kill("w3"))));
    mdm.set_retry_policy(RetryPolicy::none());
    let degraded = mdm.query_degraded(&walk, Deadline::none()).unwrap();
    assert!(!degraded.completeness.is_complete());
    let err = mdm.query_with_provenance(&walk).unwrap_err();
    assert_eq!(err.category(), "execution", "{err}");
    assert!(err.message().contains("w3"), "{err}");
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Transient-only fault schedules are *invisible* in the result: with
    /// enough retry budget the answer table is identical to the fault-free
    /// run and the completeness report stays complete.
    #[test]
    fn transient_faults_never_change_the_answer(seed in 0u64..10_000, rate_pct in 0u32..31) {
        let walk = usecase::figure8_walk();
        let mut mdm = evolved_mdm();
        mdm.set_retry_policy(instant_retries(12));
        let baseline = mdm.query_degraded(&walk, Deadline::none()).unwrap();

        mdm.set_fault_plan(Some(Arc::new(
            FaultPlan::seeded(seed).transient_rate(f64::from(rate_pct) / 100.0),
        )));
        let faulted = mdm.query_degraded(&walk, Deadline::none()).unwrap();

        prop_assert_eq!(baseline.table(), faulted.table());
        prop_assert!(faulted.completeness.is_complete());
        prop_assert_eq!(
            faulted.completeness.contributors,
            baseline.completeness.contributors
        );
    }

    /// Killing any single wrapper yields a strict subset of the fault-free
    /// rows plus a completeness report naming the dead wrapper — or, when
    /// the victim carried *every* branch (w2 joins both), a hard error.
    #[test]
    fn killed_wrapper_degrades_to_a_named_subset(seed in 0u64..10_000, victim_idx in 0usize..3) {
        let victim = ["w1", "w2", "w3"][victim_idx];
        let walk = usecase::figure8_walk();
        let mut mdm = evolved_mdm();
        mdm.set_retry_policy(RetryPolicy::none());
        let baseline = mdm.query_degraded(&walk, Deadline::none()).unwrap();

        mdm.set_fault_plan(Some(Arc::new(FaultPlan::seeded(seed).kill(victim))));
        match mdm.query_degraded(&walk, Deadline::none()) {
            Ok(answer) => {
                prop_assert!(!answer.completeness.is_complete());
                prop_assert!(
                    answer.completeness.dropped.iter().any(|d| {
                        d.wrappers.iter().any(|w| w.starts_with(victim))
                    }),
                    "dropped branches {:?} must name {}",
                    answer.completeness.dropped,
                    victim
                );
                let baseline_table = baseline.table();
                let baseline_rows: BTreeSet<_> = baseline_table.rows().iter().collect();
                for row in answer.table().rows() {
                    prop_assert!(baseline_rows.contains(row), "invented row {row:?}");
                }
                prop_assert!(answer.rows.len() < baseline.rows.len());
            }
            Err(e) => {
                // Only the branch-carrying wrapper w2 can take down the
                // whole UCQ; anything else must degrade, not fail.
                prop_assert_eq!(victim, "w2");
                prop_assert_eq!(e.category(), "execution");
            }
        }
    }
}
