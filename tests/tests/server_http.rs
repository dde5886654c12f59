//! Drives `mdm-server` over real TCP: the full steward→analyst lifecycle,
//! concurrent analysts during a breaking release (no stale plans), snapshot
//! round-trips and the epoch-keyed plan cache, all through the HTTP API.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use mdm_core::usecase;
use mdm_core::Mdm;
use mdm_dataform::{json, Value};
use mdm_server::{client, serve, ServerConfig};
use mdm_wrappers::football::{self, FootballEcosystem};

const FIG8_WALK: &str =
    "ex:Player { ex:playerName }\nsc:SportsTeam { ex:teamName }\nex:Player -ex:hasTeam-> sc:SportsTeam";

/// Four keep-alive analysts pin four workers for the whole test, so give
/// the pool headroom for the steward's one-shot connections.
fn eight_workers() -> ServerConfig {
    ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Value {
    let response =
        client::post_json(addr, path, body).unwrap_or_else(|e| panic!("POST {path} failed: {e}"));
    assert!(
        (200..300).contains(&response.status),
        "POST {path} -> HTTP {}: {}",
        response.status,
        response.body
    );
    json::parse(&response.body).expect("response is JSON")
}

fn get(addr: SocketAddr, path: &str) -> Value {
    let response = client::get(addr, path).unwrap_or_else(|e| panic!("GET {path} failed: {e}"));
    assert_eq!(response.status, 200, "GET {path}: {}", response.body);
    json::parse(&response.body).expect("response is JSON")
}

fn int_of(value: &Value, field: &str) -> i64 {
    value
        .get(field)
        .and_then(Value::as_number)
        .and_then(|n| n.as_i64())
        .unwrap_or_else(|| panic!("missing numeric '{field}' in {value:?}"))
}

fn walk_body() -> String {
    json::to_string(&Value::object([("walk", Value::string(FIG8_WALK))]))
}

fn row_with_cells(answer: &Value, needles: &[&str]) -> bool {
    answer
        .get("rows")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .any(|row| {
            let cells: Vec<&str> = row
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_str)
                .collect();
            needles.iter().all(|needle| cells.contains(needle))
        })
}

/// The steward publishes the breaking Players v2 release through the API:
/// the nationality feature, wrapper w3 over the evolved payload, its LAV
/// mapping. Returns the epoch after the mapping lands.
fn register_v2_over_http(addr: SocketAddr, eco: &FootballEcosystem) -> i64 {
    post(
        addr,
        "/steward/features",
        r#"{"concept": "ex:Player", "feature": "ex:nationality"}"#,
    );
    let v2 = eco.players_api.release(2).expect("v2 published");
    let wrapper = Value::object([
        ("name", Value::string("w3")),
        ("source", Value::string("PlayersAPI")),
        ("version", Value::int(i64::from(v2.version))),
        ("format", Value::string("json")),
        ("payload", Value::string(v2.body.as_str())),
        (
            "attributes",
            Value::array(
                [
                    "id",
                    "pName",
                    "height",
                    "weight",
                    "foot",
                    "teamId",
                    "nationality",
                ]
                .into_iter()
                .map(Value::string),
            ),
        ),
        (
            "bindings",
            Value::object([
                ("id", Value::string("players_id")),
                ("pName", Value::string("players_full_name")),
                ("height", Value::string("players_height")),
                ("weight", Value::string("players_weight")),
                ("foot", Value::string("players_foot")),
                ("teamId", Value::string("players_team_id")),
                ("nationality", Value::string("players_nationality")),
            ]),
        ),
    ]);
    post(addr, "/steward/wrappers", &json::to_string(&wrapper));
    let mapping = r#"{
        "wrapper": "w3",
        "concepts": ["ex:Player", "sc:SportsTeam"],
        "features": ["ex:playerId", "ex:playerName", "ex:height", "ex:weight",
                     "ex:foot", "ex:nationality", "ex:teamId"],
        "relations": [{"from": "ex:Player", "property": "ex:hasTeam", "to": "sc:SportsTeam"}],
        "same_as": [
            {"attribute": "id", "feature": "ex:playerId"},
            {"attribute": "pName", "feature": "ex:playerName"},
            {"attribute": "height", "feature": "ex:height"},
            {"attribute": "weight", "feature": "ex:weight"},
            {"attribute": "foot", "feature": "ex:foot"},
            {"attribute": "nationality", "feature": "ex:nationality"},
            {"attribute": "teamId", "feature": "ex:teamId"}
        ]
    }"#;
    let ack = post(addr, "/steward/mappings", mapping);
    int_of(&ack, "epoch")
}

/// The paper's whole loop over the wire: a steward builds the Figure 5
/// fragment and the Figure 7 mappings for w1/w2 through the HTTP API from a
/// completely empty Mdm, then four concurrent analysts pose the Figure 8
/// walk and all read the same Table 1 rows as JSON.
#[test]
fn lifecycle_from_empty_metadata_over_tcp() {
    let eco = football::build_default();
    let server = serve(eight_workers(), Mdm::new()).unwrap();
    let addr = server.addr();

    // Global graph (the §2.1 steward interactions, Figure 5 fragment).
    post(addr, "/steward/concepts", r#"{"concept": "ex:Player"}"#);
    post(addr, "/steward/concepts", r#"{"concept": "sc:SportsTeam"}"#);
    post(
        addr,
        "/steward/features",
        r#"{"concept": "ex:Player", "feature": "ex:playerId", "identifier": true}"#,
    );
    for feature in [
        "ex:playerName",
        "ex:height",
        "ex:weight",
        "ex:score",
        "ex:foot",
    ] {
        post(
            addr,
            "/steward/features",
            &format!(r#"{{"concept": "ex:Player", "feature": "{feature}"}}"#),
        );
    }
    post(
        addr,
        "/steward/features",
        r#"{"concept": "sc:SportsTeam", "feature": "ex:teamId", "identifier": true}"#,
    );
    for feature in ["ex:teamName", "ex:shortName"] {
        post(
            addr,
            "/steward/features",
            &format!(r#"{{"concept": "sc:SportsTeam", "feature": "{feature}"}}"#),
        );
    }
    post(
        addr,
        "/steward/relations",
        r#"{"from": "ex:Player", "property": "ex:hasTeam", "to": "sc:SportsTeam"}"#,
    );

    // Sources and the two Figure 6 wrappers with their releases.
    post(addr, "/steward/sources", r#"{"name": "PlayersAPI"}"#);
    post(addr, "/steward/sources", r#"{"name": "TeamsAPI"}"#);
    let players_v1 = eco.players_api.release(1).expect("v1 published");
    let w1 = Value::object([
        ("name", Value::string("w1")),
        ("source", Value::string("PlayersAPI")),
        ("version", Value::int(1)),
        ("format", Value::string("json")),
        ("payload", Value::string(players_v1.body.as_str())),
        (
            "attributes",
            Value::array(
                ["id", "pName", "height", "weight", "score", "foot", "teamId"]
                    .into_iter()
                    .map(Value::string),
            ),
        ),
        (
            "bindings",
            Value::object([
                ("id", Value::string("id")),
                ("pName", Value::string("name")),
                ("height", Value::string("height")),
                ("weight", Value::string("weight")),
                ("score", Value::string("rating")),
                ("foot", Value::string("preferred_foot")),
                ("teamId", Value::string("team_id")),
            ]),
        ),
    ]);
    let registration = post(addr, "/steward/wrappers", &json::to_string(&w1));
    assert!(
        registration
            .get("wrapper")
            .and_then(Value::as_str)
            .is_some_and(|iri| iri.ends_with("/w1")),
        "registration names the wrapper: {registration:?}"
    );
    let teams_v1 = eco.teams_api.release(1).expect("v1 published");
    let w2 = Value::object([
        ("name", Value::string("w2")),
        ("source", Value::string("TeamsAPI")),
        ("version", Value::int(1)),
        ("format", Value::string("xml")),
        ("payload", Value::string(teams_v1.body.as_str())),
        (
            "attributes",
            Value::array(["id", "name", "shortName"].into_iter().map(Value::string)),
        ),
        (
            "bindings",
            Value::object([
                ("id", Value::string("team_id")),
                ("name", Value::string("team_name")),
                ("shortName", Value::string("team_shortName")),
            ]),
        ),
    ]);
    post(addr, "/steward/wrappers", &json::to_string(&w2));

    // The Figure 7 LAV mappings.
    post(
        addr,
        "/steward/mappings",
        r#"{
            "wrapper": "w1",
            "concepts": ["ex:Player", "sc:SportsTeam"],
            "features": ["ex:playerId", "ex:playerName", "ex:height", "ex:weight",
                         "ex:score", "ex:foot", "ex:teamId"],
            "relations": [{"from": "ex:Player", "property": "ex:hasTeam", "to": "sc:SportsTeam"}],
            "same_as": [
                {"attribute": "id", "feature": "ex:playerId"},
                {"attribute": "pName", "feature": "ex:playerName"},
                {"attribute": "height", "feature": "ex:height"},
                {"attribute": "weight", "feature": "ex:weight"},
                {"attribute": "score", "feature": "ex:score"},
                {"attribute": "foot", "feature": "ex:foot"},
                {"attribute": "teamId", "feature": "ex:teamId"}
            ]
        }"#,
    );
    post(
        addr,
        "/steward/mappings",
        r#"{
            "wrapper": "w2",
            "concepts": ["sc:SportsTeam"],
            "features": ["ex:teamId", "ex:teamName", "ex:shortName"],
            "same_as": [
                {"attribute": "id", "feature": "ex:teamId"},
                {"attribute": "name", "feature": "ex:teamName"},
                {"attribute": "shortName", "feature": "ex:shortName"}
            ]
        }"#,
    );

    // The analyst's turn: parse, rewrite and answer the Figure 8 walk.
    let parsed = post(addr, "/analyst/parse", &walk_body());
    assert_eq!(int_of(&parsed, "concepts"), 2);
    assert_eq!(int_of(&parsed, "relations"), 1);
    let rewriting = post(addr, "/analyst/rewrite", &walk_body());
    assert!(rewriting
        .get("sparql")
        .and_then(Value::as_str)
        .is_some_and(|s| s.contains("SELECT")));
    let baseline = post(addr, "/analyst/query", &walk_body());
    let baseline_rows = int_of(&baseline, "row_count");
    assert!(baseline_rows > 0, "Table 1 must not be empty");
    assert!(
        row_with_cells(&baseline, &["Lionel Messi", "FC Barcelona"]),
        "Table 1 misses the Messi row: {baseline:?}"
    );

    // Four analysts hammer the same OMQ concurrently over keep-alive
    // connections; everyone reads the same table.
    let body = walk_body();
    thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut connection = client::Connection::open(addr).unwrap();
                for _ in 0..3 {
                    let response = connection
                        .send("POST", "/analyst/query", Some(&body))
                        .unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                    let answer = json::parse(&response.body).unwrap();
                    assert_eq!(int_of(&answer, "row_count"), baseline_rows);
                }
            });
        }
    });

    let metrics = get(addr, "/metrics");
    assert_eq!(int_of(&metrics, "errors_total"), 0);
    assert!(int_of(&metrics, "requests_total") >= 30);

    // The data-plane export carries dictionary and columnar counters; the
    // queries above ran under the columnar default, so the encode path
    // must have moved.
    let dp = metrics
        .get("data_plane")
        .expect("data_plane stats exported");
    for field in [
        "rows_moved",
        "batches_emitted",
        "dict_entries",
        "dict_bytes",
    ] {
        assert!(
            dp.get(field).and_then(Value::as_number).is_some(),
            "data_plane misses numeric '{field}': {dp:?}"
        );
    }
    let columnar = dp.get("columnar").expect("columnar stats exported");
    for field in [
        "encodes",
        "decodes",
        "column_bytes",
        "kernel_invocations",
        "index_builds",
        "resident_relations",
        "resident_bytes",
        "resident_index_bytes",
    ] {
        assert!(
            columnar.get(field).and_then(Value::as_number).is_some(),
            "columnar misses numeric '{field}': {columnar:?}"
        );
    }
    assert!(
        int_of(columnar, "encodes") > 0 && int_of(columnar, "kernel_invocations") > 0,
        "columnar default did not execute any kernels: {columnar:?}"
    );
    // The Figure 8 walk scanned both registered wrappers, w1 and w2.
    assert_eq!(int_of(columnar, "resident_relations"), 2, "{columnar:?}");
    assert!(int_of(columnar, "resident_bytes") > 0, "{columnar:?}");
    // Its one join is single-key, so its build column kept the index the
    // first query built: a warm query builds none and holds no new bytes.
    let index_bytes = int_of(columnar, "resident_index_bytes");
    assert!(index_bytes > 0, "{columnar:?}");
    let columnar_now = || {
        let metrics = get(addr, "/metrics");
        let columnar = metrics
            .get("data_plane")
            .and_then(|dp| dp.get("columnar"))
            .expect("columnar stats exported");
        (
            int_of(columnar, "index_builds"),
            int_of(columnar, "resident_index_bytes"),
        )
    };
    // `index_builds` is process-wide and other tests in this binary query
    // alongside, so look for one quiet window: a warm query that rebuilt
    // would move the counter in every one of them.
    let quiet = (0..20).any(|_| {
        let (builds, _) = columnar_now();
        post(addr, "/analyst/query", &body);
        let (after, bytes) = columnar_now();
        assert_eq!(
            bytes, index_bytes,
            "a warm query changed the resident indexes"
        );
        after == builds
    });
    assert!(quiet, "every warm Figure 8 query built a join index");
    server.shutdown();
}

/// Readers keep querying while the steward registers the breaking Players
/// v2 release. Within every connection epochs are monotone, every response
/// matches either the pre- or post-release plan (nothing in between), and
/// any response at the post-release epoch carries the new union branch —
/// the cache never serves a stale plan across the release.
#[test]
fn concurrent_readers_never_see_stale_plans() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    let server = serve(eight_workers(), mdm).unwrap();
    let addr = server.addr();

    let before = post(addr, "/analyst/rewrite", &walk_body());
    let branches_before = int_of(&before, "branches");

    // Per-reader sequences of (epoch, branches) responses.
    type Observations = Vec<Vec<(i64, i64)>>;
    let stop = Arc::new(AtomicBool::new(false));
    let observations: Arc<Mutex<Observations>> = Arc::new(Mutex::new(Vec::new()));
    let body = walk_body();
    thread::scope(|scope| {
        for _ in 0..4 {
            let stop = Arc::clone(&stop);
            let observations = Arc::clone(&observations);
            let body = body.clone();
            scope.spawn(move || {
                let mut seen = Vec::new();
                let mut connection = client::Connection::open(addr).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    let response = connection
                        .send("POST", "/analyst/query", Some(&body))
                        .unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                    let answer = json::parse(&response.body).unwrap();
                    seen.push((int_of(&answer, "epoch"), int_of(&answer, "branches")));
                }
                observations.lock().unwrap().push(seen);
            });
        }

        thread::sleep(Duration::from_millis(30));
        let release_epoch = register_v2_over_http(addr, &eco);

        // The release is visible to new queries immediately and unions in
        // the v2 branch — Zlatan only exists on the new version.
        let after = post(addr, "/analyst/query", &walk_body());
        let branches_after = int_of(&after, "branches");
        assert!(
            branches_after > branches_before,
            "the rewriting must grow a union branch ({branches_before} -> {branches_after})"
        );
        assert!(row_with_cells(&after, &["Zlatan Ibrahimovic"]));
        assert!(int_of(&after, "epoch") >= release_epoch);

        // Let the readers observe the post-release world, then stop them.
        thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::SeqCst);
    });

    let observations = observations.lock().unwrap();
    assert_eq!(observations.len(), 4);
    let after = post(addr, "/analyst/query", &walk_body());
    let branches_after = int_of(&after, "branches");
    let release_epoch = int_of(&after, "epoch");
    for seen in observations.iter() {
        assert!(!seen.is_empty(), "every reader answered at least once");
        for window in seen.windows(2) {
            assert!(window[0].0 <= window[1].0, "epoch went backwards: {seen:?}");
        }
        for (epoch, branches) in seen {
            assert!(
                *branches == branches_before || *branches == branches_after,
                "response matches neither the old nor the new plan: \
                 epoch {epoch}, branches {branches}"
            );
            if *epoch >= release_epoch {
                assert_eq!(
                    *branches, branches_after,
                    "stale plan served after the release (epoch {epoch})"
                );
            }
        }
    }

    let metrics = get(addr, "/metrics");
    let invalidations = metrics
        .get("plan_cache")
        .map(|cache| int_of(cache, "invalidations"))
        .unwrap_or(0);
    assert!(
        invalidations >= 1,
        "the release must invalidate cached plans"
    );
    server.shutdown();
}

/// snapshot → restore → snapshot is idempotent over the API: the second
/// snapshot is byte-identical, the epoch keeps increasing across the swap,
/// and the restored metadata still rewrites the Figure 8 walk.
#[test]
fn snapshot_restore_snapshot_is_idempotent() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    let server = serve(ServerConfig::default(), mdm).unwrap();
    let addr = server.addr();

    let first = get(addr, "/steward/snapshot");
    let snapshot = first
        .get("snapshot")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let epoch_before = int_of(&first, "epoch");

    let restore_body = json::to_string(&Value::object([(
        "snapshot",
        Value::string(snapshot.as_str()),
    )]));
    let ack = post(addr, "/steward/restore", &restore_body);
    assert!(int_of(&ack, "epoch") > epoch_before, "epoch stays monotone");

    let second = get(addr, "/steward/snapshot");
    assert_eq!(
        second.get("snapshot").and_then(Value::as_str),
        Some(snapshot.as_str()),
        "restoring a snapshot and re-snapshotting must be a fixpoint"
    );

    // The restored metadata still plans the walk (payloads re-register
    // separately; rewriting only needs metadata).
    let rewriting = post(addr, "/analyst/rewrite", &walk_body());
    assert!(int_of(&rewriting, "branches") >= 1);
    server.shutdown();
}

/// The changefeed after `POST /steward/restore` starts at the restored
/// epoch: the feed before the swap described metadata that is gone, so a
/// cursor below the restore is told it is truncated, and a cursor at it
/// gets exactly the mutations after it.
#[test]
fn restore_moves_the_changefeed_horizon() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    let server = serve(ServerConfig::default(), mdm).unwrap();
    let addr = server.addr();

    let snapshot = get(addr, "/steward/snapshot");
    let restore_body = json::to_string(&Value::object([(
        "snapshot",
        Value::string(snapshot.get("snapshot").and_then(Value::as_str).unwrap()),
    )]));
    let restored = int_of(&post(addr, "/steward/restore", &restore_body), "epoch");
    let ack = int_of(
        &post(addr, "/steward/concepts", r#"{"concept": "ex:Referee"}"#),
        "epoch",
    );
    assert_eq!(ack, restored + 1);

    let feed = |since: i64| {
        let page = get(addr, &format!("/changes?since={since}"));
        let epochs: Vec<i64> = page
            .get("changes")
            .and_then(Value::as_array)
            .expect("changes array")
            .iter()
            .map(|r| int_of(r, "epoch"))
            .collect();
        (epochs, page.get("truncated").and_then(Value::as_bool))
    };
    assert_eq!(
        feed(0),
        (vec![ack], Some(true)),
        "the pre-restore feed is gone"
    );
    assert_eq!(feed(restored - 1), (vec![ack], Some(true)));
    assert_eq!(feed(restored), (vec![ack], Some(false)));
    server.shutdown();
}

/// A restore replaces metadata, not configuration: the execution settings
/// `ServerConfig` stamped at start-up survive the swap.
#[test]
fn restore_keeps_the_configured_execution_settings() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    let config = ServerConfig {
        optimize: Some(mdm_relational::OptimizeMode::Off),
        pool_size: Some(1),
        ..ServerConfig::default()
    };
    let server = serve(config, mdm).unwrap();
    let addr = server.addr();

    let settings = |metrics: &Value| {
        let mode = metrics
            .get("optimizer")
            .and_then(|o| o.get("mode"))
            .and_then(Value::as_str)
            .map(str::to_string);
        (
            mode,
            int_of(metrics.get("pool").expect("pool gauges"), "size"),
        )
    };
    let configured = (Some("off".to_string()), 1);
    assert_eq!(settings(&get(addr, "/metrics")), configured);

    let snapshot = get(addr, "/steward/snapshot");
    let restore_body = json::to_string(&Value::object([(
        "snapshot",
        Value::string(snapshot.get("snapshot").and_then(Value::as_str).unwrap()),
    )]));
    post(addr, "/steward/restore", &restore_body);
    assert_eq!(settings(&get(addr, "/metrics")), configured);
    server.shutdown();
}

/// Repeated OMQs hit the plan cache (>0.9 hit rate in /metrics) and a
/// breaking release invalidates it: the next query replans and includes
/// the new version's union branch.
#[test]
fn plan_cache_hit_rate_and_release_invalidation() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    let server = serve(ServerConfig::default(), mdm).unwrap();
    let addr = server.addr();

    let body = walk_body();
    let baseline = post(addr, "/analyst/query", &body);
    let branches_before = int_of(&baseline, "branches");
    for _ in 0..29 {
        post(addr, "/analyst/query", &body);
    }
    let metrics = get(addr, "/metrics");
    let cache = metrics.get("plan_cache").expect("cache stats exported");
    let hit_rate = cache
        .get("hit_rate")
        .and_then(Value::as_number)
        .map(|n| n.as_f64())
        .unwrap();
    assert!(hit_rate > 0.9, "expected >0.9 hit rate, got {hit_rate}");
    assert_eq!(int_of(cache, "misses"), 1, "one compile for 30 queries");
    // The served queries prepared branch plans. Other tests in this binary
    // move the shared statistics catalog, which makes walks prepare
    // again, so `prepared_plans.rs` is where the count is exact.
    let optimizer = metrics.get("optimizer").expect("optimizer exported");
    assert!(
        int_of(optimizer, "branch_plans_optimized") >= 1,
        "{optimizer:?}"
    );

    register_v2_over_http(addr, &eco);
    let after = post(addr, "/analyst/query", &body);
    assert!(int_of(&after, "branches") > branches_before);
    assert!(row_with_cells(&after, &["Zlatan Ibrahimovic"]));

    let metrics = get(addr, "/metrics");
    let cache = metrics.get("plan_cache").expect("cache stats exported");
    assert!(int_of(cache, "invalidations") >= 1);
    assert_eq!(int_of(cache, "misses"), 2, "the release forces one replan");

    // The key set is exactly what the one served pipeline can move: no
    // optimized-plan side slot, no invalidation mode, no run-time branch
    // sharing, no string table beside the term dictionary and no
    // whole-UCQ optimizer pass.
    for field in ["reoptimizations", "optimized_hits", "optimized_misses"] {
        assert!(
            cache.get(field).is_none(),
            "plan_cache still exports '{field}': {cache:?}"
        );
    }
    let data_plane = metrics.get("data_plane").expect("data plane exported");
    for field in [
        "branches_shared",
        "intern_hits",
        "intern_misses",
        "intern_hit_rate",
        "interned_bytes",
        "intern_entries",
        "intern_sweeps",
    ] {
        assert!(data_plane.get(field).is_none(), "{data_plane:?}");
    }
    let optimizer = metrics.get("optimizer").expect("optimizer exported");
    assert!(optimizer.get("branches_deduped").is_none(), "{optimizer:?}");
    assert!(int_of(data_plane, "rows_moved") > 0);
    let evolution = metrics
        .get("evolution")
        .expect("evolution counters exported");
    assert!(
        evolution.get("invalidation_mode").is_none(),
        "surgical is the only behaviour: {evolution:?}"
    );
    for field in [
        "surgical_invalidations",
        "survivals",
        "incremental_extensions",
        "full_rewrites",
    ] {
        assert!(
            evolution.get(field).and_then(Value::as_number).is_some(),
            "evolution misses numeric '{field}': {evolution:?}"
        );
    }
    assert!(
        int_of(evolution, "full_rewrites") >= 1,
        "the cold compiles above must be counted: {evolution:?}"
    );
    server.shutdown();
}

/// A body nested far deeper than any parser limit is a 400, not a dead
/// process: each worker runs on a default-sized thread stack, and a
/// megabyte of `[` used to recurse through all of it.
#[test]
fn a_deeply_nested_body_is_rejected_and_the_server_lives() {
    let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
    let addr = server.addr();
    let body = "[".repeat(1 << 20);
    let response = client::post_json(addr, "/analyst/query", &body).expect("server answers");
    assert_eq!(response.status, 400, "{}", response.body);
    let error = json::parse(&response.body).expect("error body is JSON");
    let error = error.get("error").expect("error object");
    assert_eq!(
        error.get("category").and_then(Value::as_str),
        Some("protocol"),
        "{error:?}"
    );
    let message = error.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("nesting"), "{message}");
    let health = client::get(addr, "/healthz").expect("server still answers");
    assert_eq!(health.status, 200, "{}", health.body);
    server.shutdown();
}

/// A keep-alive request crosses loopback as one segment and its answer
/// comes back through one completion, so the event loop wakes twice per
/// request: once for the request, once for the worker's completion. A
/// client that sends a request in pieces costs a wake per piece that
/// arrives after the loop has read the ones before it (sent in six
/// `write`s, a request cost 2.2–3.0). The bound leaves room for a few
/// stray wakes, not for a second piece per request.
#[test]
fn a_keep_alive_request_costs_the_loop_few_wakes() {
    const REQUESTS: i64 = 200;
    let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
    let mut connection = client::Connection::open(server.addr()).unwrap();
    let wakeups = |connection: &mut client::Connection| {
        let metrics = connection.send("GET", "/metrics", None).unwrap();
        let metrics = json::parse(&metrics.into_ok().unwrap()).expect("metrics are JSON");
        int_of(&metrics, "poll_wakeups_total")
    };
    let before = wakeups(&mut connection);
    for _ in 0..REQUESTS {
        let health = connection.send("GET", "/healthz", None).unwrap();
        assert_eq!(health.status, 200, "{}", health.body);
    }
    let after = wakeups(&mut connection);
    // The last /metrics request is counted too.
    let per_request = (after - before) as f64 / (REQUESTS + 1) as f64;
    assert!(
        per_request <= 2.05,
        "{} wakes for {} requests ({per_request:.2} each)",
        after - before,
        REQUESTS + 1
    );
    drop(connection);
    server.shutdown();
}
