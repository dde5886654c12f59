//! Failover suite: fenced primary promotion under crash/chaos schedules.
//!
//! The invariant under test is the **fencing term**: at most one node
//! accepts steward mutations per term, and every acknowledged mutation
//! survives any schedule of kills, promotions and rejoins — except writes
//! acknowledged by a primary *after* it was partitioned away from the
//! node that gets promoted; those form a divergent tail that the demoted
//! primary must discard when it rejoins.
//!
//! Layers of evidence:
//!
//! * A chaos harness: primary + two replicas under sustained mixed
//!   steward/analyst load, three scripted kill → promote → rejoin cycles
//!   (with a mid-stream severed connection thrown in), asserting zero
//!   acknowledged mutations lost, exactly one writable node per term, and
//!   byte-identical snapshots at equal epochs on every survivor.
//! * A split-brain test: the old primary keeps running, learns of the new
//!   term, fences itself, and refuses steward writes with 409.
//! * A divergence test: a partitioned-away replica is promoted while the
//!   doomed primary keeps acknowledging writes; on rejoin the demoted
//!   primary discards exactly its divergent records and converges.
//! * A property test: promoting after ANY replayed WAL prefix opens a
//!   durable store whose recovered snapshot equals the primary's at that
//!   epoch, under the bumped term.
//! * Promotion refusals: poisoned and never-bootstrapped replicas (and
//!   primaries) answer 409 instead of forking the timeline.
//!
//! Chaos schedules derive from `MDM_CHAOS_SEED` (see `common`), so a
//! failing run can be replayed exactly.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use common::*;
use mdm_core::{FsyncPolicy, Mdm, MetaStore};
use mdm_dataform::{json, Value};
use mdm_replica::ReplicaHandle;
use mdm_server::client;
use mdm_server::replication::ReplicaState;
use mdm_server::ServerHandle;
use mdm_store::{ReplicationBatch, Store, WalRecord};
use proptest::prelude::*;

/// SplitMix64 lane derivation: every thread/node in the chaos schedule
/// gets its own deterministic stream off the one `MDM_CHAOS_SEED`.
fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A node slot in the chaos harness: its handle changes type across
/// incarnations (a promoted replica keeps its `ReplicaHandle`).
enum Node {
    Primary(ServerHandle),
    Replica(ReplicaHandle),
}

impl Node {
    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Node::Primary(handle) => handle.addr(),
            Node::Replica(handle) => handle.addr(),
        }
    }

    fn shutdown(self) {
        match self {
            Node::Primary(handle) => handle.shutdown(),
            Node::Replica(handle) => handle.shutdown(),
        }
    }
}

fn failover_gauges(addr: std::net::SocketAddr) -> Value {
    let metrics = get_json(addr, "/metrics");
    metrics.get("failover").expect("failover gauges").clone()
}

// ---------------------------------------------------------------------
// The chaos harness: three kill → promote → rejoin cycles under load
// ---------------------------------------------------------------------

/// Three nodes, three cycles; the roles rotate so every node is killed,
/// promoted and rejoined exactly once:
///
/// | cycle | primary (killed) | promoted (term) | restarted bystander |
/// |-------|------------------|-----------------|---------------------|
/// | 0     | n0               | n1 (term 2)     | n2                  |
/// | 1     | n1               | n2 (term 3)     | n0                  |
/// | 2     | n2               | n0 (term 4)     | n1                  |
///
/// Each cycle runs a mixed steward/analyst workload, drains the promotion
/// target, kills the primary, promotes, probes that exactly one node
/// accepts writes, re-points the bystander (replicas follow a fixed
/// address), rejoins the dead primary over its old journal, and asserts
/// byte-identical convergence with every acknowledged mutation present.
#[test]
fn three_failover_cycles_lose_no_acknowledged_mutation() {
    let seed = chaos_seed();
    let dirs = [
        temp_dir("chaos-n0"),
        temp_dir("chaos-n1"),
        temp_dir("chaos-n2"),
    ];
    let mut nodes: Vec<Option<Node>> = Vec::new();

    let server = start_primary_in(dirs[0].clone());
    let initial_epoch = int_of(&get_json(server.addr(), "/epoch"), "metadata_epoch") as u64;
    // n1 follows through a severable proxy: cycle 0 cuts its stream
    // mid-workload and it must reconnect before the drain.
    let proxy = Proxy::start(server.addr());
    let n1 = start_replica_at(&proxy.addr.to_string(), Some(dirs[1].clone()), mix(seed, 1));
    let n2 = start_replica_at(
        &server.addr().to_string(),
        Some(dirs[2].clone()),
        mix(seed, 2),
    );
    assert!(n1.wait_for_epoch(initial_epoch, Duration::from_secs(20)));
    assert!(n2.wait_for_epoch(initial_epoch, Duration::from_secs(20)));
    nodes.push(Some(Node::Primary(server)));
    nodes.push(Some(Node::Replica(n1)));
    nodes.push(Some(Node::Replica(n2)));

    // Acknowledged mutations across ALL cycles: every one must be present
    // in every converged snapshot until the end of the test.
    let mut acked: Vec<String> = Vec::new();

    for cycle in 0..3usize {
        let p = cycle % 3; // current primary: killed this cycle
        let t = (cycle + 1) % 3; // promotion target
        let b = (cycle + 2) % 3; // bystander: re-pointed after promotion
        let primary_addr = nodes[p].as_ref().unwrap().addr();
        let target_addr = nodes[t].as_ref().unwrap().addr();
        let bystander_addr = nodes[b].as_ref().unwrap().addr();
        let expected_term = cycle as i64 + 2;

        // -- Mixed workload: steward writes on the primary, analyst reads
        // on the replicas, both on their own threads.
        let stop = Arc::new(AtomicBool::new(false));
        let steward = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut acked = Vec::new();
                let mut i = 0u32;
                while !stop.load(Ordering::SeqCst) {
                    // Zero-padded so no name is a prefix of another: the
                    // presence check below is a plain substring match.
                    let name = format!("Cycle{cycle}Item{i:04}");
                    match define_concept(primary_addr, &ns(&name)) {
                        Ok(_epoch) => acked.push(name),
                        Err(r) => panic!(
                            "cycle {cycle}: steward write refused mid-workload: HTTP {} {}",
                            r.status, r.body
                        ),
                    }
                    i += 1;
                    thread::sleep(Duration::from_millis(2));
                }
                acked
            })
        };
        let analyst = {
            let stop = Arc::clone(&stop);
            let lane = mix(seed, 300 + cycle as u64);
            thread::spawn(move || {
                let replicas = [target_addr, bystander_addr];
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let addr = replicas[(mix(lane, i) % 2) as usize];
                    let epoch = get_json(addr, "/epoch");
                    assert_eq!(str_of(&epoch, "role"), "replica");
                    if i.is_multiple_of(8) {
                        // Real execution (stale reads are fine; errors
                        // are not).
                        assert!(query_body(addr, FIG8_WALK).contains("Lionel Messi"));
                    }
                    i += 1;
                    thread::sleep(Duration::from_millis(5));
                }
                i
            })
        };
        thread::sleep(Duration::from_millis(150));
        if cycle == 0 {
            // Mid-stream cut: n1's replication connection dies; it must
            // reconnect through the same proxy address and catch up.
            proxy.sever();
        }
        thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::SeqCst);
        let cycle_acked = steward.join().expect("steward thread");
        let analyst_reads = analyst.join().expect("analyst thread");
        assert!(
            !cycle_acked.is_empty(),
            "cycle {cycle}: steward made no progress"
        );
        assert!(analyst_reads > 0, "cycle {cycle}: analyst made no progress");
        acked.extend(cycle_acked);

        // -- Drain: every acknowledged epoch must be replayed on the
        // promotion target before the kill (async replication cannot
        // save what never arrived).
        let drained = int_of(&get_json(primary_addr, "/epoch"), "metadata_epoch") as u64;
        {
            let Some(Node::Replica(target)) = nodes[t].as_ref() else {
                unreachable!("promotion targets are always replicas")
            };
            assert!(
                target.wait_for_epoch(drained, Duration::from_secs(30)),
                "cycle {cycle}: target never drained to epoch {drained}"
            );
        }

        // -- Kill the primary (its journal directory survives for the
        // rejoin below).
        nodes[p].take().unwrap().shutdown();
        if cycle == 0 {
            // The proxy fronted n0; with n0 dead it goes dark for good.
            proxy.stop();
        }

        // -- Promote the drained target.
        let response = client::post_json(target_addr, "/admin/promote", "{}").unwrap();
        assert_eq!(
            response.status, 200,
            "cycle {cycle}: promotion failed: {}",
            response.body
        );
        let ack = json::parse(&response.body).unwrap();
        assert_eq!(int_of(&ack, "term"), expected_term, "cycle {cycle}");
        assert_eq!(str_of(&ack, "role"), "primary");
        assert!(int_of(&ack, "generation") >= 1, "promotion opens a journal");

        // -- Exactly one writable node per term: the new primary accepts,
        // every other live node refuses.
        let probe = format!("Cycle{cycle}Probe");
        match define_concept(target_addr, &ns(&probe)) {
            Ok(_epoch) => acked.push(probe),
            Err(r) => panic!(
                "cycle {cycle}: new primary refused a write: HTTP {} {}",
                r.status, r.body
            ),
        }
        let denied = define_concept(bystander_addr, &ns(&format!("Cycle{cycle}Rogue")))
            .expect_err("bystander replica must not accept steward writes");
        assert_eq!(denied.status, 421, "cycle {cycle}: {}", denied.body);

        // -- Replicas follow a fixed address: re-point the bystander at
        // the new primary, and rejoin the dead primary over its old
        // journal (it recovers, detects the newer term, resyncs).
        nodes[b].take().unwrap().shutdown();
        nodes[b] = Some(Node::Replica(start_replica_at(
            &target_addr.to_string(),
            Some(dirs[b].clone()),
            mix(seed, 100 + (cycle * 3 + b) as u64),
        )));
        nodes[p] = Some(Node::Replica(start_replica_at(
            &target_addr.to_string(),
            Some(dirs[p].clone()),
            mix(seed, 200 + (cycle * 3 + p) as u64),
        )));

        // -- Convergence: both followers reach the primary's exact epoch.
        let primary_epoch = int_of(&get_json(target_addr, "/epoch"), "metadata_epoch");
        for slot in [p, b] {
            let addr = nodes[slot].as_ref().unwrap().addr();
            wait_until(Duration::from_secs(30), "cycle convergence", || {
                let epoch = get_json(addr, "/epoch");
                int_of(&epoch, "metadata_epoch") == primary_epoch
                    && int_of(&epoch, "replay_lag") == 0
            });
        }

        // Byte-identical snapshots at equal epochs on every survivor, and
        // every mutation ever acknowledged is present.
        let (reference_snapshot, reference_epoch) = snapshot_of(target_addr);
        for slot in [p, b] {
            let (snapshot, epoch) = snapshot_of(nodes[slot].as_ref().unwrap().addr());
            assert_eq!(epoch, reference_epoch, "cycle {cycle}: epochs diverge");
            assert_eq!(
                snapshot, reference_snapshot,
                "cycle {cycle}: snapshots diverge"
            );
        }
        for name in &acked {
            assert!(
                reference_snapshot.contains(name.as_str()),
                "cycle {cycle}: acknowledged mutation {name} was lost"
            );
        }

        // Everyone agrees on the term; the rejoined ex-primary discarded
        // nothing (the drain guaranteed it held no divergent tail) but
        // did go through the rejoin handshake.
        for slot in [p, t, b] {
            let addr = nodes[slot].as_ref().unwrap().addr();
            assert_eq!(
                int_of(&get_json(addr, "/epoch"), "term"),
                expected_term,
                "cycle {cycle}: node {slot} disagrees on the term"
            );
        }
        let rejoined = failover_gauges(nodes[p].as_ref().unwrap().addr());
        assert_eq!(int_of(&rejoined, "rejoins"), 1, "cycle {cycle}");
        assert_eq!(
            int_of(&rejoined, "divergent_records_discarded"),
            0,
            "cycle {cycle}: a drained primary has no divergent tail"
        );
        let promoted = failover_gauges(target_addr);
        assert_eq!(int_of(&promoted, "promotions"), 1, "cycle {cycle}");
    }

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

// ---------------------------------------------------------------------
// Split brain: the stale primary fences itself and refuses writes
// ---------------------------------------------------------------------

#[test]
fn stale_primary_is_fenced_and_refuses_writes_with_409() {
    let (primary, dir) = start_primary("fence");
    let addr = primary.addr();
    let replica = start_replica(addr);
    let seeded = define_concept(addr, &ns("BeforeFailover")).unwrap();
    assert!(replica.wait_for_epoch(seeded, Duration::from_secs(20)));

    // Promote while the old primary still runs: a split brain in the
    // making — the fencing term resolves it.
    let response = client::post_json(replica.addr(), "/admin/promote", "{}").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let ack = json::parse(&response.body).unwrap();
    assert_eq!(int_of(&ack, "term"), 2);
    assert_eq!(str_of(&ack, "role"), "primary");

    // First contact with evidence of the newer term — a replica-style
    // stream request stamped term=2 — fences the old primary on the spot.
    let raw = client::get_raw(
        addr,
        "/replication/stream?generation=0&from=0&wait_ms=0&term=2",
    )
    .unwrap();
    assert_eq!(raw.status, 409);
    assert!(String::from_utf8_lossy(&raw.body).contains("fencing"));

    // Steward writes on the fenced node: 409 carrying the observed term
    // (the exactly-one-writable-node-per-term invariant, negative half).
    let denied = define_concept(addr, &ns("AfterFence")).unwrap_err();
    assert_eq!(denied.status, 409, "{}", denied.body);
    let body = json::parse(&denied.body).unwrap();
    assert_eq!(int_of(&body, "observed_term"), 2);
    // ...while the new primary accepts (positive half).
    define_concept(replica.addr(), &ns("AfterFence")).unwrap();

    // The fenced node keeps serving reads, honestly labelled degraded.
    let health = get_json(addr, "/healthz");
    assert_eq!(str_of(&health, "status"), "degraded");
    assert_eq!(int_of(&health, "fenced_by_term"), 2);
    assert_eq!(int_of(&health, "term"), 1);
    let (snapshot, _) = snapshot_of(addr);
    assert!(snapshot.contains("BeforeFailover"));

    // Explicit fencing: a stale term is refused, a newer one lands.
    let stale = client::post_json(addr, "/admin/fence", r#"{"term": 1}"#).unwrap();
    assert_eq!(stale.status, 409, "{}", stale.body);
    let newer = client::post_json(addr, "/admin/fence", r#"{"term": 9}"#).unwrap();
    assert_eq!(newer.status, 200, "{}", newer.body);
    let newer = json::parse(&newer.body).unwrap();
    assert_eq!(newer.get("fenced").and_then(Value::as_bool), Some(true));

    // Gauges: the fenced node counted its rejections (stream fence,
    // steward denial, stale explicit fence); the new primary counted the
    // promotion and reports the new term on both /epoch and /metrics.
    let fenced = failover_gauges(addr);
    assert!(int_of(&fenced, "fenced_rejections") >= 3);
    assert_eq!(fenced.get("fenced").and_then(Value::as_bool), Some(true));
    let promoted = failover_gauges(replica.addr());
    assert_eq!(int_of(&promoted, "promotions"), 1);
    assert_eq!(int_of(&promoted, "term"), 2);
    assert_eq!(int_of(&get_json(replica.addr(), "/epoch"), "term"), 2);

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Divergence: a demoted primary discards its unreplicated tail on rejoin
// ---------------------------------------------------------------------

#[test]
fn demoted_primary_rejoins_and_discards_its_divergent_tail() {
    let seed = chaos_seed();
    let old_dir = temp_dir("rejoin-old");
    let new_dir = temp_dir("rejoin-new");
    let primary = start_primary_in(old_dir.clone());
    let addr = primary.addr();
    // The replica follows through a proxy so the partition can outlive
    // the connection: `stop()` kills the listener, reconnects fail.
    let proxy = Proxy::start(addr);
    let replica = start_replica_at(&proxy.addr.to_string(), Some(new_dir.clone()), seed);

    let shared = define_concept(addr, &ns("SharedHistory")).unwrap();
    assert!(replica.wait_for_epoch(shared, Duration::from_secs(20)));

    // Partition the replica away for good, then keep writing on the
    // doomed primary: three acknowledged mutations that never replicate.
    proxy.stop();
    for i in 0..3 {
        define_concept(addr, &ns(&format!("Doomed{i}"))).unwrap();
    }
    primary.shutdown(); // the divergent journal survives in old_dir

    // The partitioned survivor is promoted (it never saw the tail)...
    let response = client::post_json(replica.addr(), "/admin/promote", "{}").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let new_addr = replica.addr();
    // ...and history moves on under term 2.
    let moved_on = define_concept(new_addr, &ns("NewHistory")).unwrap();

    // The demoted primary rejoins over its old journal: it recovers
    // (serving stale reads), presents its term-1 credentials, learns the
    // fork epoch from the 409 handshake, discards exactly its three
    // divergent records, purges, and resyncs from the new snapshot.
    let rejoined = start_replica_at(&new_addr.to_string(), Some(old_dir.clone()), mix(seed, 7));
    let rejoined_addr = rejoined.addr();
    wait_until(Duration::from_secs(30), "rejoin convergence", || {
        let gauges = failover_gauges(rejoined_addr);
        let epoch = get_json(rejoined_addr, "/epoch");
        int_of(&gauges, "rejoins") >= 1 && int_of(&epoch, "metadata_epoch") as u64 == moved_on
    });
    let gauges = failover_gauges(rejoined_addr);
    assert_eq!(int_of(&gauges, "rejoins"), 1);
    assert_eq!(int_of(&gauges, "divergent_records_discarded"), 3);
    assert_eq!(int_of(&get_json(rejoined_addr, "/epoch"), "term"), 2);
    let health = get_json(rejoined_addr, "/healthz");
    assert_eq!(str_of(&health, "status"), "ok");
    assert_eq!(str_of(&health, "replica_state"), "replicating");

    // New writes keep propagating; the converged snapshot is
    // byte-identical, contains the surviving history, and none of the
    // doomed tail.
    let extra = define_concept(new_addr, &ns("PostRejoin")).unwrap();
    assert!(rejoined.wait_for_epoch(extra, Duration::from_secs(20)));
    let (on_primary, primary_epoch) = snapshot_of(new_addr);
    let (on_rejoined, rejoined_epoch) = snapshot_of(rejoined_addr);
    assert_eq!(primary_epoch, rejoined_epoch);
    assert_eq!(on_primary, on_rejoined);
    assert!(on_rejoined.contains("SharedHistory"));
    assert!(on_rejoined.contains("NewHistory"));
    assert!(on_rejoined.contains("PostRejoin"));
    assert!(
        !on_rejoined.contains("Doomed"),
        "divergent writes must not survive the rejoin"
    );

    rejoined.shutdown();
    replica.shutdown();
    let _ = std::fs::remove_dir_all(old_dir);
    let _ = std::fs::remove_dir_all(new_dir);
}

// ---------------------------------------------------------------------
// Property: promotion after ANY replayed prefix matches the primary
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Promoting a replica that replayed an arbitrary WAL prefix opens a
    /// durable store that recovers to the exact snapshot the primary had
    /// at that epoch, under the bumped term starting there.
    #[test]
    fn promotion_after_any_replayed_prefix_matches_the_primary(
        codes in proptest::collection::vec(any::<u8>(), 1..24),
        prefix_selector in any::<u16>(),
    ) {
        let ops = build_ops(&codes);
        let primary_dir = temp_dir("promote-prop-primary");
        let promoted_dir = temp_dir("promote-prop-promoted");
        let (store, mut primary, _report) =
            MetaStore::attach(&primary_dir, FsyncPolicy::Never, Mdm::new()).unwrap();
        for op in &ops {
            primary.apply(op).unwrap();
        }
        let prefix = prefix_selector as usize % (ops.len() + 1);

        // Ship the prefix over the wire format and replay it replica-style.
        let batch = store.replication_batch(0, 0, prefix, primary.epoch());
        let replica = replay_batch(&ReplicationBatch::decode(&batch.encode()).unwrap());

        // Promote the replayed state into its own store at term 2...
        let promoted =
            MetaStore::promote_in(&promoted_dir, FsyncPolicy::Never, &replica, 2).unwrap();
        drop(promoted);

        // ...and recover it: the snapshot is the primary's at that epoch,
        // the WAL is empty, and the term starts at the promotion epoch.
        let mut reference = Mdm::new();
        for op in &ops[..prefix] {
            reference.apply(op).unwrap();
        }
        let (reopened, recovered) = Store::open(&promoted_dir, FsyncPolicy::Never)
            .unwrap()
            .expect("promotion created a store");
        prop_assert_eq!(recovered.snapshot, reference.snapshot_stamped());
        prop_assert_eq!(recovered.base_epoch, reference.epoch());
        prop_assert!(recovered.records.is_empty());
        prop_assert_eq!(reopened.term(), 2);
        prop_assert_eq!(reopened.term_start_epoch(), reference.epoch());

        drop(store);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&promoted_dir);
    }
}

// ---------------------------------------------------------------------
// Promotion refusals: never fork the timeline from unfit state
// ---------------------------------------------------------------------

#[test]
fn unfit_nodes_refuse_promotion_with_a_clear_409() {
    // A poisoned replica (corrupt WAL record from a hostile primary) may
    // have diverged: promotion is refused, naming the poisoned offset.
    let mut seed_mdm = Mdm::new();
    seed_mdm
        .define_concept(&mdm_core::usecase::ex("Player"))
        .unwrap();
    let batch = ReplicationBatch {
        term: 1,
        term_start_epoch: 0,
        generation: 1,
        base_epoch: seed_mdm.epoch(),
        primary_epoch: seed_mdm.epoch() + 1,
        start: 0,
        wal_len: 1,
        snapshot: Some(seed_mdm.snapshot_stamped()),
        records: vec![WalRecord {
            epoch: seed_mdm.epoch() + 1,
            // Tag 250 is no MutationOp: replay poisons at offset 0.
            payload: vec![250, 1, 2, 3],
        }],
    };
    let hostile = hostile_primary(batch);
    let poisoned = start_replica_at(&hostile.to_string(), None, chaos_seed());
    wait_until(Duration::from_secs(10), "replica to poison", || {
        poisoned.status().state() == ReplicaState::Poisoned
    });
    let denied = client::post_json(poisoned.addr(), "/admin/promote", "{}").unwrap();
    assert_eq!(denied.status, 409, "{}", denied.body);
    assert!(denied.body.contains("poisoned"), "{}", denied.body);
    assert!(denied.body.contains("offset 0"), "{}", denied.body);
    poisoned.shutdown();

    // A replica that never bootstrapped holds nothing worth promoting.
    let unbootstrapped = start_replica_at("127.0.0.1:1", None, chaos_seed());
    let denied = client::post_json(unbootstrapped.addr(), "/admin/promote", "{}").unwrap();
    assert_eq!(denied.status, 409, "{}", denied.body);
    assert!(
        denied.body.contains("never bootstrapped"),
        "{}",
        denied.body
    );
    // The replica arm of /admin/fence: it adopts the newer term (so its
    // next stream request would fence a stale primary).
    let fenced =
        client::post_json(unbootstrapped.addr(), "/admin/fence", r#"{"term": 7}"#).unwrap();
    assert_eq!(fenced.status, 200, "{}", fenced.body);
    let fenced = json::parse(&fenced.body).unwrap();
    assert_eq!(str_of(&fenced, "role"), "replica");
    assert_eq!(int_of(&fenced, "term"), 7);
    unbootstrapped.shutdown();

    // A primary is already a primary.
    let (primary, dir) = start_primary("promote-refuse");
    let denied = client::post_json(primary.addr(), "/admin/promote", "{}").unwrap();
    assert_eq!(denied.status, 409, "{}", denied.body);
    assert!(denied.body.contains("not a replica"), "{}", denied.body);
    primary.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
