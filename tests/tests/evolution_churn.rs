//! Churn suite for surgical plan invalidation (the P15 companion).
//!
//! Three layers of evidence:
//!
//! * A property test that under ANY interleaving of breaking feature
//!   definitions, extension releases (wrapper + mapping), unrelated source
//!   registrations and analyst queries — across both execution modes and
//!   both optimizer modes — every plan served from the footprint-validated cache
//!   (hit, survivor, or incremental extension) is byte-identical to a cold
//!   rewrite at the same epoch. No stale unions, ever.
//! * Deterministic hit-rate checks: disjoint-footprint churn keeps
//!   unrelated plans hot (no recompiles), mapping-only churn repairs plans
//!   by incremental UCQ extension, and overlapping mutations still
//!   invalidate.
//! * The `/changes` changefeed over real TCP: exactly-once delivery per
//!   cursor, long-poll wake on commit, cursors surviving a reconnect, and
//!   a replica serving the same feed (with the evolution counters exported
//!   on both roles).

mod common;

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use common::*;
use mdm_core::synthetic::{
    chain_walk, concept_iri, feature_iri, register_synthetic_wrapper, relation_iri,
};
use mdm_core::Mdm;
use mdm_dataform::{json, Value};
use mdm_relational::{Deadline, OptimizeMode, StatsCatalog};
use mdm_server::client;
use mdm_wrappers::workload::{build, SyntheticEcosystem, WorkloadConfig};
use proptest::prelude::*;

/// Builds the ecosystem's global graph and sources but registers only the
/// v1 wrapper of each source — the later versions stay in `eco` as the
/// churn supply (mirrors `mdm_from_synthetic`, which registers everything).
fn synthetic_base(eco: &SyntheticEcosystem) -> Mdm {
    let mut mdm = Mdm::new();
    for c in 0..eco.config.concepts {
        let concept = concept_iri(c);
        mdm.define_concept(&concept).unwrap();
        for attribute in eco.concept_attributes(c) {
            let feature = feature_iri(c, &attribute);
            if attribute == "id" {
                mdm.define_identifier(&concept, &feature).unwrap();
            } else {
                mdm.define_feature(&concept, &feature).unwrap();
            }
        }
    }
    for c in 0..eco.config.concepts.saturating_sub(1) {
        mdm.define_relation(&concept_iri(c), &relation_iri(c), &concept_iri(c + 1))
            .unwrap();
    }
    for source in &eco.sources {
        mdm.add_source(source.source.endpoint.name()).unwrap();
        register_synthetic_wrapper(&mut mdm, eco, source.concept, source.wrappers[0].clone())
            .unwrap();
    }
    mdm
}

/// Total textual identity of a rewriting: union branches, plan, SPARQL,
/// output columns and the phase-(a) expansions.
fn fingerprint(rewriting: &mdm_core::Rewriting) -> String {
    format!("{rewriting:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random churn scripts — extension releases, breaking feature
    /// definitions, unrelated sources, statistics refreshes — interleaved
    /// with chain-walk
    /// queries: whatever the cache serves (equality hit, footprint
    /// survivor, or incrementally extended plan) must be byte-identical to
    /// a cold rewrite at the same epoch; and what the served path then
    /// executes must render like the cold reference, under parallel and
    /// sequential execution, optimizer on and off.
    #[test]
    fn churned_cache_matches_cold_rewrite(
        codes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..32),
        parallel in any::<bool>(),
        cost in any::<bool>(),
    ) {
        let eco = build(&WorkloadConfig {
            concepts: 4,
            features_per_concept: 2,
            versions_per_source: 4,
            rows_per_wrapper: 3,
            seed: 21,
        });
        let mut mdm = synthetic_base(&eco);
        mdm.set_threads(if parallel { 2 } else { 1 });
        mdm.set_optimize(if cost { OptimizeMode::Cost } else { OptimizeMode::Off });
        // Its own catalog: the refresh steps below move no other test's.
        mdm.set_stats_catalog(Arc::new(StatsCatalog::new()));

        // Warm every walk so the churn below has plans to test against.
        for k in 1..=eco.config.concepts {
            let walk = chain_walk(&eco, k);
            prop_assert_eq!(
                mdm.rewrite_cached(&walk).map(|r| fingerprint(&r)),
                mdm.rewrite(&walk).map(|r| fingerprint(&r))
            );
        }

        let mut next_version = vec![1usize; eco.config.concepts];
        let mut fresh = 0usize;
        for (action, operand) in codes {
            let c = operand as usize % eco.config.concepts;
            let walk = chain_walk(&eco, 1 + operand as usize % eco.config.concepts);
            // The served path agrees with the cold end-to-end reference.
            let served_equals_reference = |mdm: &Mdm| {
                prop_assert_eq!(
                    mdm.query_degraded(&walk, Deadline::none()).map(|a| a.render()),
                    mdm.query(&walk).map(|a| a.render())
                );
                Ok(())
            };
            match action % 5 {
                0 => {
                    // Extension release: the source's next wrapper version
                    // plus its mapping; falls back to a no-footprint source
                    // registration once the version supply is exhausted.
                    if next_version[c] < eco.sources[c].wrappers.len() {
                        let wrapper = eco.sources[c].wrappers[next_version[c]].clone();
                        next_version[c] += 1;
                        register_synthetic_wrapper(&mut mdm, &eco, c, wrapper).unwrap();
                    } else {
                        mdm.add_source(&format!("Fresh{fresh}")).unwrap();
                        fresh += 1;
                    }
                }
                1 => {
                    // Breaking mutation on concept c's fragment.
                    fresh += 1;
                    mdm.define_feature(
                        &concept_iri(c),
                        &feature_iri(c, &format!("late{fresh}")),
                    )
                    .unwrap();
                }
                2 => {
                    // Empty footprint: invisible to every cached plan.
                    mdm.add_source(&format!("Fresh{fresh}")).unwrap();
                    fresh += 1;
                }
                3 => {
                    // New statistics under the cached rewritings: their
                    // prepared branch plans go stale, not the rewritings.
                    served_equals_reference(&mdm)?;
                    mdm.refresh_stats();
                }
                _ => served_equals_reference(&mdm)?, // pure query step
            }
            // `Result`s, not unwraps: a churn script may widen the UCQ
            // past `max_branches`, and then both must refuse alike.
            prop_assert_eq!(
                mdm.rewrite_cached(&walk).map(|r| fingerprint(&r)),
                mdm.rewrite(&walk).map(|r| fingerprint(&r))
            );
            if action % 5 == 3 {
                // The query after a refresh prepares its plans again.
                served_equals_reference(&mdm)?;
            }
        }

        // The served path (cached rewriting, per-branch execution, merge)
        // agrees with the cold end-to-end reference.
        let walk = chain_walk(&eco, eco.config.concepts);
        prop_assert_eq!(
            mdm.query_degraded(&walk, Deadline::none()).map(|a| a.render()),
            mdm.query(&walk).map(|a| a.render())
        );
    }
}

/// Releases over concepts far down the chain leave a plan over the head of
/// the chain hot: zero recompiles across the whole churn, survivals
/// counted, and a genuinely overlapping mutation still invalidates.
#[test]
fn disjoint_churn_keeps_unrelated_plans_hot() {
    let eco = build(&WorkloadConfig {
        concepts: 8,
        features_per_concept: 2,
        versions_per_source: 4,
        rows_per_wrapper: 2,
        seed: 33,
    });
    let mut mdm = synthetic_base(&eco);
    let walk = chain_walk(&eco, 2); // reads concepts c0, c1
    let warm = mdm.rewrite_cached(&walk).unwrap();
    let stats = mdm.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1));
    assert_eq!(stats.full_rewrites, 1);

    // Churn at concept 5: each release is a RegisterWrapper (a wrapper the
    // plan has never heard of) plus a DefineMapping covering c5 and its
    // edge witness c6 — a gap of ≥ 2 from the cached walk's {c0, c1}.
    for round in 1..eco.sources[5].wrappers.len() {
        let wrapper = eco.sources[5].wrappers[round].clone();
        register_synthetic_wrapper(&mut mdm, &eco, 5, wrapper).unwrap();
        let again = mdm.rewrite_cached(&walk).unwrap();
        assert_eq!(fingerprint(&warm), fingerprint(&again));
    }
    let stats = mdm.cache_stats();
    assert_eq!(stats.misses, 1, "disjoint churn must not force a replan");
    assert_eq!(stats.full_rewrites, 1);
    assert_eq!(stats.incremental_extensions, 0);
    assert!(stats.survivals >= 1, "footprint test must record survivals");
    assert_eq!(stats.surgical_invalidations, 0);

    // An overlapping mutation — a new feature on c0 — still invalidates.
    mdm.define_feature(&concept_iri(0), &feature_iri(0, "c0_late"))
        .unwrap();
    mdm.rewrite_cached(&walk).unwrap();
    let stats = mdm.cache_stats();
    assert_eq!(stats.misses, 2, "the overlapping release forces one replan");
    assert!(stats.surgical_invalidations >= 1);
}

/// A mapping-only release over a concept the plan reads repairs the cached
/// plan by incremental UCQ extension — no full rewrite, output
/// byte-identical to a cold rewrite at the new epoch — and the extended
/// plan is itself cached.
#[test]
fn mapping_only_churn_extends_the_cached_plan() {
    let eco = build(&WorkloadConfig {
        concepts: 3,
        features_per_concept: 2,
        versions_per_source: 3,
        rows_per_wrapper: 2,
        seed: 44,
    });
    let mut mdm = synthetic_base(&eco);
    let walk = chain_walk(&eco, 2);
    let before = mdm.rewrite_cached(&walk).unwrap();
    let branches_before = before.branch_count();

    // Concept 0's next wrapper version: RegisterWrapper is invisible to
    // the plan (fresh name), DefineMapping is an extension covering c0.
    let wrapper = eco.sources[0].wrappers[1].clone();
    register_synthetic_wrapper(&mut mdm, &eco, 0, wrapper).unwrap();

    let extended = mdm.rewrite_cached(&walk).unwrap();
    let stats = mdm.cache_stats();
    assert_eq!(stats.incremental_extensions, 1, "repaired, not recompiled");
    assert_eq!(stats.full_rewrites, 1, "only the initial compile");
    assert!(
        extended.branch_count() > branches_before,
        "the new wrapper version must union in ({} -> {})",
        branches_before,
        extended.branch_count()
    );
    assert_eq!(
        fingerprint(&extended),
        fingerprint(&mdm.rewrite(&walk).unwrap()),
        "incremental extension must be byte-identical to a cold rewrite"
    );

    // The spliced plan is cached: the next lookup is an equality hit.
    let again = mdm.rewrite_cached(&walk).unwrap();
    assert!(Arc::ptr_eq(&extended, &again));
}

// ---------------------------------------------------------------------
// The /changes changefeed over real TCP
// ---------------------------------------------------------------------

fn changes_of(page: &Value) -> Vec<Value> {
    page.get("changes")
        .and_then(Value::as_array)
        .expect("changes array")
        .to_vec()
}

/// Paging the feed from cursor 0 yields every committed mutation exactly
/// once, in epoch order; a new mutation lands exactly once at the tail,
/// carrying its kind and footprint summary.
#[test]
fn changefeed_delivers_every_mutation_exactly_once_per_cursor() {
    let (primary, dir) = start_primary("changes-once");
    let addr = primary.addr();
    let epoch = int_of(&get_json(addr, "/epoch"), "metadata_epoch");

    let mut cursor = 0i64;
    let mut seen = Vec::new();
    loop {
        let page = get_json(addr, &format!("/changes?since={cursor}&limit=5"));
        assert_eq!(int_of(&page, "since"), cursor);
        let records = changes_of(&page);
        if records.is_empty() {
            assert_eq!(int_of(&page, "next"), cursor, "empty page keeps the cursor");
            break;
        }
        assert!(records.len() <= 5, "limit respected");
        seen.extend(records.iter().map(|r| int_of(r, "epoch")));
        cursor = int_of(&page, "next");
    }
    let expected: Vec<i64> = (1..=epoch).collect();
    assert_eq!(seen, expected, "every mutation exactly once, in order");

    let ack = define_concept(addr, &ns("Referee")).unwrap();
    let page = get_json(addr, &format!("/changes?since={cursor}"));
    let records = changes_of(&page);
    assert_eq!(records.len(), 1, "exactly the one new mutation");
    assert_eq!(int_of(&records[0], "epoch") as u64, ack);
    assert_eq!(str_of(&records[0], "kind"), "define_concept");
    let footprint = records[0].get("footprint").expect("footprint summary");
    assert!(
        footprint
            .get("concepts")
            .and_then(Value::as_array)
            .is_some_and(|concepts| !concepts.is_empty()),
        "a concept definition's footprint names the concept: {footprint:?}"
    );
    primary.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// A parked long-poll wakes when the steward commits — well before its
/// timeout — and delivers exactly the new record.
#[test]
fn changefeed_long_poll_wakes_on_commit() {
    let (primary, dir) = start_primary("changes-poll");
    let addr = primary.addr();
    let epoch = int_of(&get_json(addr, "/epoch"), "metadata_epoch");

    let waiter = thread::spawn(move || {
        let started = Instant::now();
        let page = get_json(addr, &format!("/changes?since={epoch}&wait_ms=10000"));
        (started.elapsed(), page)
    });
    thread::sleep(Duration::from_millis(120));
    let ack = define_concept(addr, &ns("LongPoll")).unwrap();

    let (elapsed, page) = waiter.join().unwrap();
    assert!(
        elapsed < Duration::from_secs(8),
        "long-poll must wake on commit, took {elapsed:?}"
    );
    let records = changes_of(&page);
    assert_eq!(records.len(), 1);
    assert_eq!(int_of(&records[0], "epoch") as u64, ack);
    assert_eq!(int_of(&page, "next") as u64, ack);

    // With nothing new, a bounded wait drains empty at its deadline.
    let page = get_json(addr, &format!("/changes?since={ack}&wait_ms=100"));
    assert!(changes_of(&page).is_empty());
    primary.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// A cursor is just an epoch, so it survives its connection: half the feed
/// read on one connection resumes on a fresh one with no gaps and no
/// duplicates — and a replica, replaying the stream through the same
/// commit path, serves the feed (and the evolution counters) too.
#[test]
fn changes_cursor_survives_reconnect_and_replicas_serve_the_feed() {
    let (primary, dir) = start_primary("changes-replica");
    let addr = primary.addr();
    let epoch = int_of(&get_json(addr, "/epoch"), "metadata_epoch");

    let replica = start_replica(addr);
    assert!(replica.wait_for_epoch(epoch as u64, Duration::from_secs(20)));

    // Read the head of the feed on a dedicated connection, then drop it.
    let mut connection = client::Connection::open(addr).unwrap();
    let response = connection
        .send("GET", "/changes?since=0&limit=2", None)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let page = json::parse(&response.body).unwrap();
    let head: Vec<i64> = changes_of(&page)
        .iter()
        .map(|r| int_of(r, "epoch"))
        .collect();
    assert_eq!(head, vec![1, 2]);
    let cursor = int_of(&page, "next");
    drop(connection);

    // Resume from the same cursor on a fresh connection: the tail follows
    // seamlessly — no gaps, no duplicates.
    let page = get_json(addr, &format!("/changes?since={cursor}"));
    let tail: Vec<i64> = changes_of(&page)
        .iter()
        .map(|r| int_of(r, "epoch"))
        .collect();
    let expected: Vec<i64> = (cursor + 1..=epoch).collect();
    assert_eq!(tail, expected);

    // A fresh mutation reaches the replica's feed at the same epoch.
    let ack = define_concept(addr, &ns("Fanout")).unwrap();
    assert!(replica.wait_for_epoch(ack, Duration::from_secs(10)));
    let on_replica = get_json(replica.addr(), &format!("/changes?since={}", ack - 1));
    let records = changes_of(&on_replica);
    assert_eq!(records.len(), 1, "the replica serves the new record");
    assert_eq!(int_of(&records[0], "epoch") as u64, ack);
    assert_eq!(str_of(&records[0], "kind"), "define_concept");

    // The evolution counters are exported on both roles.
    for node in [addr, replica.addr()] {
        let metrics = get_json(node, "/metrics");
        let evolution = metrics.get("evolution").expect("evolution counters");
        assert!(
            evolution.get("invalidation_mode").is_none(),
            "surgical is the only behaviour: no mode to report"
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
    }

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
