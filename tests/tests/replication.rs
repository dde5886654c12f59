//! Replication suite: WAL-shipping read replicas against a live primary.
//!
//! Two layers of evidence:
//!
//! * A property test that the **wire path** (snapshot + CRC-framed records
//!   through [`ReplicationBatch`] encode/decode, replayed via the journal
//!   apply path) reproduces, for ANY valid mutation script and ANY prefix
//!   length, a state byte-identical to an in-memory primary that executed
//!   the same prefix — same canonical snapshot, same epoch.
//! * Real-TCP integration: a primary with a durable journal, two
//!   [`ReplicaNode`]s bootstrapping over HTTP, convergence after a breaking
//!   release within one long-poll cycle, byte-identical analyst answers, a
//!   mid-stream disconnect/reconnect (severed through a TCP proxy), and the
//!   poison latch on a corrupt WAL record served by a hostile primary.
//!
//! Shared plumbing (mutation scripts, node helpers, the severable proxy,
//! the hostile primary) lives in `common`; the failover suite reuses it.

mod common;

use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

use common::*;
use mdm_core::{FsyncPolicy, Mdm, MetaStore, MutationOp};
use mdm_dataform::Value;
use mdm_replica::{ReplicaConfig, ReplicaNode};
use mdm_server::client;
use mdm_server::replication::ReplicaState;
use mdm_store::{ReplicationBatch, WalRecord};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any prefix of the primary's WAL, shipped through the binary wire
    /// format, replays to a byte-identical canonical snapshot at the same
    /// epoch as an in-memory primary that ran the same prefix.
    #[test]
    fn wire_replay_is_byte_identical_for_any_prefix(
        codes in proptest::collection::vec(any::<u8>(), 1..24),
        prefix_selector in any::<u16>(),
    ) {
        let ops = build_ops(&codes);
        let dir = temp_dir("prop");
        let (store, mut primary, _report) =
            MetaStore::attach(&dir, FsyncPolicy::Never, Mdm::new()).unwrap();
        for op in &ops {
            primary.apply(op).unwrap();
        }
        let prefix = prefix_selector as usize % (ops.len() + 1);

        // Replica's first request: generation 0 forces a snapshot resync.
        let batch = store.replication_batch(0, 0, prefix, primary.epoch());
        let decoded = ReplicationBatch::decode(&batch.encode()).unwrap();
        prop_assert_eq!(decoded.records.len(), prefix);
        let replica = replay_batch(&decoded);

        let mut reference = Mdm::new();
        for op in &ops[..prefix] {
            reference.apply(op).unwrap();
        }
        prop_assert_eq!(replica.epoch(), reference.epoch());
        prop_assert_eq!(replica.snapshot_stamped(), reference.snapshot_stamped());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Real-TCP integration
// ---------------------------------------------------------------------

#[test]
fn two_replicas_bootstrap_converge_and_answer_byte_identically() {
    let (primary, dir) = start_primary("converge");
    let addr = primary.addr();
    let initial_epoch = int_of(&get_json(addr, "/epoch"), "metadata_epoch") as u64;

    let replica_a = start_replica(addr);
    let replica_b = start_replica(addr);
    assert!(replica_a.wait_for_epoch(initial_epoch, Duration::from_secs(20)));
    assert!(replica_b.wait_for_epoch(initial_epoch, Duration::from_secs(20)));

    // Bootstrapped replicas are healthy and advertise their role and the
    // fencing term they observed from the stream.
    for replica in [&replica_a, &replica_b] {
        let health = get_json(replica.addr(), "/healthz");
        assert_eq!(str_of(&health, "status"), "ok");
        assert_eq!(str_of(&health, "replica_state"), "replicating");
        assert_eq!(int_of(&health, "term"), 1);
        let epoch = get_json(replica.addr(), "/epoch");
        assert_eq!(str_of(&epoch, "role"), "replica");
        assert_eq!(int_of(&epoch, "metadata_epoch") as u64, initial_epoch);
        assert_eq!(int_of(&epoch, "term"), 1);
        assert_eq!(int_of(&epoch, "replay_lag"), 0);
    }
    assert_eq!(str_of(&get_json(addr, "/epoch"), "role"), "primary");
    assert_eq!(int_of(&get_json(addr, "/epoch"), "term"), 1);

    // Byte-identical analyst answers at the same epoch — including real
    // execution, which needs the hydrated wrapper payloads.
    let on_primary = query_body(addr, FIG8_WALK);
    assert_eq!(query_body(replica_a.addr(), FIG8_WALK), on_primary);
    assert_eq!(query_body(replica_b.addr(), FIG8_WALK), on_primary);
    assert!(on_primary.contains("Lionel Messi"), "{on_primary}");

    // Steward mutations belong on the primary.
    let denied = client::post_json(
        replica_a.addr(),
        "/steward/concepts",
        r#"{"concept": "ex:Referee"}"#,
    )
    .unwrap();
    assert_eq!(denied.status, 421);
    assert!(denied
        .header("location")
        .unwrap_or("")
        .contains(&addr.to_string()));

    // The breaking v2 release: both replicas catch up within one long-poll
    // cycle (500 ms here; generous bound for a loaded 1-CPU runner).
    let new_epoch = register_v2_over_http(addr);
    let started = Instant::now();
    assert!(replica_a.wait_for_epoch(new_epoch, Duration::from_secs(10)));
    assert!(replica_b.wait_for_epoch(new_epoch, Duration::from_secs(10)));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "catch-up took {:?}",
        started.elapsed()
    );
    let nationality_walk = "ex:Player { ex:playerName, ex:nationality }";
    let on_primary = query_body(addr, nationality_walk);
    assert_eq!(query_body(replica_a.addr(), nationality_walk), on_primary);
    assert_eq!(query_body(replica_b.addr(), nationality_walk), on_primary);

    // Primary-side gauges saw both replicas.
    let metrics = get_json(addr, "/metrics");
    let replication = metrics.get("replication").expect("replication gauges");
    assert_eq!(str_of(replication, "role"), "primary");
    assert_eq!(int_of(replication, "connected_replicas"), 2);
    assert!(int_of(replication, "streamed_records") >= 3);
    assert!(int_of(replication, "snapshots_served") >= 2);

    // Replica-side gauges mirror the replay.
    let metrics = get_json(replica_a.addr(), "/metrics");
    let replication = metrics.get("replication").expect("replication gauges");
    assert_eq!(str_of(replication, "role"), "replica");
    assert_eq!(int_of(replication, "replay_lag"), 0);
    assert!(int_of(replication, "records_applied") >= 3);
    let failover = metrics.get("failover").expect("failover gauges");
    assert_eq!(int_of(failover, "promotions"), 0);
    assert_eq!(int_of(failover, "rejoins"), 0);

    replica_a.shutdown();
    replica_b.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// The bootstrap swaps a restored instance in for the one the replica
/// started with; the execution settings of its `ServerConfig` survive it.
#[test]
fn bootstrap_keeps_the_replicas_execution_settings() {
    let (primary, dir) = start_primary("settings");
    let epoch = int_of(&get_json(primary.addr(), "/epoch"), "metadata_epoch") as u64;
    let mut config = ReplicaConfig::new(primary.addr().to_string());
    config.server.optimize = Some(mdm_relational::OptimizeMode::Off);
    config.server.pool_size = Some(1);
    let replica = ReplicaNode::start(config).unwrap();
    assert!(replica.wait_for_epoch(epoch, Duration::from_secs(20)));

    let metrics = get_json(replica.addr(), "/metrics");
    let optimizer = metrics.get("optimizer").expect("optimizer gauges");
    assert_eq!(str_of(optimizer, "mode"), "off");
    let pool = metrics.get("pool").expect("pool gauges");
    assert_eq!(int_of(pool, "size"), 1);

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// A bootstrapped replica's changefeed starts at the snapshot it restored:
/// a cursor below it is told it is truncated, and a cursor at it gets
/// exactly the records the replica replayed from the stream.
#[test]
fn bootstrapped_replica_feed_starts_at_its_snapshot() {
    let (primary, dir) = start_primary("horizon");
    let addr = primary.addr();
    // The primary was seeded before its journal existed: its store's
    // snapshot is at the seeded epoch.
    let base = int_of(&get_json(addr, "/epoch"), "metadata_epoch");
    let replica = start_replica(addr);
    assert!(replica.wait_for_epoch(base as u64, Duration::from_secs(20)));
    let ack = define_concept(addr, &ns("AfterBootstrap")).unwrap() as i64;
    assert!(replica.wait_for_epoch(ack as u64, Duration::from_secs(10)));

    let feed = |since: i64| {
        let page = get_json(replica.addr(), &format!("/changes?since={since}"));
        let epochs: Vec<i64> = page
            .get("changes")
            .and_then(Value::as_array)
            .expect("changes array")
            .iter()
            .map(|r| int_of(r, "epoch"))
            .collect();
        let truncated = page.get("truncated").and_then(Value::as_bool);
        (epochs, truncated)
    };
    assert_eq!(
        feed(0),
        (vec![ack], Some(true)),
        "epochs before the snapshot"
    );
    assert_eq!(feed(base - 1), (vec![ack], Some(true)));
    assert_eq!(feed(base), (vec![ack], Some(false)));

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Mid-stream disconnect via a severable TCP proxy
// ---------------------------------------------------------------------

#[test]
fn replica_survives_a_midstream_disconnect_and_reconnects() {
    let (primary, dir) = start_primary("sever");
    let addr = primary.addr();
    let proxy = Proxy::start(addr);

    let replica = start_replica(proxy.addr);
    let initial_epoch = int_of(&get_json(addr, "/epoch"), "metadata_epoch") as u64;
    assert!(replica.wait_for_epoch(initial_epoch, Duration::from_secs(20)));

    // Cut every proxied byte stream while the replica long-polls.
    proxy.sever();
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.status().reconnects.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "replica never noticed the cut");
        thread::sleep(Duration::from_millis(20));
    }
    // Through the disconnect it keeps serving at its (stale but real)
    // epoch: /healthz stays ok, because the bootstrap already happened.
    let health = get_json(replica.addr(), "/healthz");
    assert_eq!(str_of(&health, "status"), "ok");

    // Meanwhile the primary moves on; the replica reconnects through the
    // same proxy address and catches up.
    let new_epoch = register_v2_over_http(addr);
    assert!(replica.wait_for_epoch(new_epoch, Duration::from_secs(20)));
    assert_eq!(
        str_of(&get_json(replica.addr(), "/healthz"), "replica_state"),
        "replicating"
    );
    let walk = "ex:Player { ex:playerName, ex:nationality }";
    assert_eq!(query_body(replica.addr(), walk), query_body(addr, walk));

    replica.shutdown();
    proxy.stop();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Poison latch: corrupt WAL records must not panic the replay thread
// ---------------------------------------------------------------------

#[test]
fn corrupt_record_poisons_the_replica_with_its_offset() {
    let mut seed = Mdm::new();
    seed.define_concept(&mdm_core::usecase::ex("Player"))
        .unwrap();
    let batch = ReplicationBatch {
        term: 1,
        term_start_epoch: 0,
        generation: 1,
        base_epoch: seed.epoch(),
        primary_epoch: seed.epoch() + 3,
        start: 0,
        wal_len: 2,
        snapshot: Some(seed.snapshot_stamped()),
        records: vec![
            WalRecord {
                epoch: seed.epoch() + 1,
                payload: MutationOp::DefineConcept {
                    concept: ns("Fine"),
                }
                .encode(),
            },
            // Tag 250 is no MutationOp: decodes must fail, replay must
            // poison (not panic), and the offset must be recorded.
            WalRecord {
                epoch: seed.epoch() + 2,
                payload: vec![250, 1, 2, 3],
            },
        ],
    };
    let addr = hostile_primary(batch);

    let mut config = ReplicaConfig::new(addr.to_string());
    config.wait_ms = 200;
    config.min_backoff = Duration::from_millis(20);
    config.max_backoff = Duration::from_millis(100);
    config.server.workers = 2;
    let replica = ReplicaNode::start(config).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.status().state() != ReplicaState::Poisoned {
        assert!(Instant::now() < deadline, "replica never poisoned");
        thread::sleep(Duration::from_millis(20));
    }
    // The good record before the poison applied; the latch names the bad
    // offset (the second record, offset 1).
    assert_eq!(replica.status().poisoned_offset(), 1);
    let health = get_json(replica.addr(), "/healthz");
    assert_eq!(str_of(&health, "status"), "degraded");
    assert_eq!(str_of(&health, "replica_state"), "poisoned");
    assert_eq!(int_of(&health, "poisoned_offset"), 1);
    assert!(str_of(&health, "replica_error").contains("decode"));
    // Poisoned is terminal: no amount of waiting resumes replay.
    assert!(!replica.wait_for_epoch(u64::MAX, Duration::from_millis(200)));
    replica.shutdown();
}
