//! The governance-of-evolution scenario (E8) and the LAV-vs-GAV
//! differential under randomized evolution streams (the measured core of
//! experiment P3).

use std::sync::{Arc, Mutex, MutexGuard};

use mdm_core::rewrite::plan_for_cq;
use mdm_core::synthetic::{chain_walk, mdm_from_synthetic, register_synthetic_wrapper};
use mdm_core::{usecase, Mdm, Walk};
use mdm_relational::{metrics, Deadline, Plan, StatsCatalog};
use mdm_wrappers::football;
use mdm_wrappers::workload::{build, evolve_all, WorkloadConfig};
use mdm_wrappers::Wrapper;

/// One test at a time: every test here runs queries, and
/// [`join_indexes_live_and_die_with_the_release_they_index`] counts the
/// process-wide `index_builds`.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn e8_queries_survive_the_breaking_release() {
    let _serial = serial();
    let eco = football::build_default();
    let mut mdm = usecase::football_mdm(&eco).unwrap();
    let walk = usecase::figure8_walk();

    // Before the governance step: the query runs but misses the players the
    // provider moved to the v2 endpoint.
    let before = mdm.query(&walk).unwrap();
    assert!(!before.render().contains("Zlatan Ibrahimovic"));

    // Steward registers the v2 wrapper and mapping — the analyst's walk is
    // untouched.
    usecase::register_players_v2(&mut mdm, &eco).unwrap();
    let after = mdm.query(&walk).unwrap();

    // "the two schema versions are now fetched and yield correct results"
    assert!(after.render().contains("Zlatan Ibrahimovic"));
    assert!(after.table.len() > before.table.len());
    assert!(after.rewriting.branch_count() > before.rewriting.branch_count());

    // Every pre-release row is still in the post-release answer
    // (monotonicity of LAV under added wrappers).
    for row in before.table.rows() {
        assert!(
            after.table.rows().contains(row),
            "row {row:?} lost after the release"
        );
    }
}

/// A wrapper keeps its release resident as term columns, owned by the
/// wrapper *instance*: whatever replaces the instance — a new payload
/// hydrated under the same name and version (same scan-cache key, same
/// epoch), or a new release — is what the very next served query reads,
/// at any pool width, and a fetch is still drawn once per
/// wrapper per query however many branches share it.
#[test]
fn resident_columns_never_outlive_the_release_they_encode() {
    let _serial = serial();
    let walk = usecase::figure8_walk();
    for threads in [1, 4] {
        let eco = football::build_default();
        let mut mdm = usecase::football_mdm(&eco).unwrap();
        mdm.set_threads(threads);
        let served = |mdm: &mdm_core::Mdm| {
            let answer = mdm.query_degraded(&walk, Deadline::none()).unwrap();
            assert!(answer.completeness.is_complete());
            answer.render()
        };
        let warm = served(&mdm);
        assert!(warm.contains("Lionel Messi") && !warm.contains("Leo Messi"));

        // Same name, same version, different body.
        let old = mdm.catalog().get("w1").unwrap();
        let mut release = old.release().clone();
        release.body = release.body.replace("Lionel Messi", "Leo Messi");
        let replacement = Wrapper::over_release(
            old.signature().clone(),
            old.source().to_string(),
            release,
            old.bindings().to_vec(),
        )
        .unwrap();
        mdm.hydrate_wrapper(replacement).unwrap();
        let rehydrated = served(&mdm);
        assert!(
            rehydrated.contains("Leo Messi") && !rehydrated.contains("Lionel Messi"),
            "{threads}: stale payload served after re-registration"
        );
        assert_eq!(rehydrated, mdm.query(&walk).unwrap().render());

        // A new release of the same source.
        usecase::register_players_v2(&mut mdm, &eco).unwrap();
        let released = served(&mdm);
        assert!(released.contains("Zlatan Ibrahimovic"), "{threads}");
        assert_eq!(released, mdm.query(&walk).unwrap().render());

        // Four branches now share w2; each wrapper is one fetch a query.
        let fetches = |mdm: &mdm_core::Mdm| -> Vec<u64> {
            ["w1", "w2", "w3"]
                .map(|name| mdm.catalog().get(name).unwrap().fetch_count())
                .to_vec()
        };
        let before = fetches(&mdm);
        assert_eq!(served(&mdm), released);
        let after = fetches(&mdm);
        for (before, after) in before.iter().zip(&after) {
            assert_eq!(after - before, 1, "{threads}: {before} -> {after}");
        }
    }
}

/// Multi-key joins across every branch plan of `walk`'s rewriting: the
/// joins that build a private index on every execution. (The optimizer
/// may swap a join's sides, never how many keys it carries, on these
/// two-wrapper branches.)
fn multi_key_joins(mdm: &Mdm, walk: &Walk) -> u64 {
    fn count(plan: &Plan) -> u64 {
        match plan {
            Plan::Scan { .. } => 0,
            Plan::Filter { input, .. } | Plan::Project { input, .. } | Plan::Distinct { input } => {
                count(input)
            }
            Plan::Join { left, right, on } => u64::from(on.len() > 1) + count(left) + count(right),
        }
    }
    let rewriting = mdm.rewrite(walk).unwrap();
    rewriting
        .queries
        .iter()
        .map(|cq| count(&plan_for_cq(cq, &rewriting.output_columns).unwrap()))
        .sum()
}

/// A single-key join builds on its key column's own index, so a release
/// kept resident is indexed once, by its first query, and the index goes
/// when the release does. Warm queries build only what multi-key joins
/// build privately.
#[test]
fn join_indexes_live_and_die_with_the_release_they_index() {
    let _serial = serial();
    // The 2-concept × 2-version chain at 10k rows, with C0's third version
    // held back as the release.
    let mut eco = build(&WorkloadConfig {
        concepts: 2,
        features_per_concept: 3,
        versions_per_source: 3,
        rows_per_wrapper: 10_000,
        seed: 42,
    });
    let release = eco.sources[0].wrappers.pop().unwrap();
    eco.sources[1].wrappers.pop();
    let mut mdm = mdm_from_synthetic(&eco).unwrap();
    // Statistics of its own: the process-wide catalog keeps what earlier
    // tests observed under the same wrapper names, and the optimizer's
    // build sides — which columns get indexed — follow the statistics.
    mdm.set_stats_catalog(Arc::new(StatsCatalog::new()));
    let walk = chain_walk(&eco, 2);

    let builds = || metrics::snapshot().columnar.index_builds;
    let served = |mdm: &Mdm| -> u64 {
        let before = builds();
        let answer = mdm.query_degraded(&walk, Deadline::none()).unwrap();
        assert!(answer.completeness.is_complete());
        builds() - before
    };
    let bytes = |mdm: &Mdm, name: &str| mdm.catalog().get(name).unwrap().resident_index_bytes();
    let total = |mdm: &Mdm| -> usize {
        let names = mdm.catalog().names();
        names.into_iter().map(|name| bytes(mdm, name)).sum()
    };
    // Columns of `name`'s resident release carrying an index.
    let indexed = |mdm: &Mdm, name: &str| -> u64 {
        let (columns, _) = mdm.catalog().get(name).unwrap().columns().unwrap();
        columns.iter().filter(|c| c.index_bytes() > 0).count() as u64
    };

    let multi = multi_key_joins(&mdm, &walk);
    let cold = served(&mdm);
    let names: Vec<String> = mdm
        .catalog()
        .names()
        .into_iter()
        .map(String::from)
        .collect();
    let filled: u64 = names.iter().map(|name| indexed(&mdm, name)).sum();
    assert!(filled > 0, "no single-key join built on a resident column");
    assert_eq!(cold, multi + filled);
    let resident = total(&mdm);
    assert_eq!(served(&mdm), multi, "a warm query rebuilt a column index");
    assert_eq!(total(&mdm), resident);

    // A C0 release: its own resident columns get their own indexes, once,
    // and every other release keeps the ones it has.
    let released = release.name().to_string();
    register_synthetic_wrapper(&mut mdm, &eco, 0, release).unwrap();
    let multi = multi_key_joins(&mdm, &walk);
    let first = served(&mdm);
    let own = indexed(&mdm, &released);
    assert!(own > 0, "the release was never a build side");
    assert_eq!(first, multi + own);
    assert_eq!(total(&mdm), resident + bytes(&mdm, &released));
    assert_eq!(served(&mdm), multi);

    // Retiring C0's v1 instance (the same payload re-published under the
    // same name) takes its index bytes out of the gauge; the replacement
    // indexes itself once, on its first query.
    let resident = total(&mdm);
    let old = mdm.catalog().get("s0_v1").unwrap();
    let retired = bytes(&mdm, "s0_v1");
    assert!(retired > 0);
    let replacement = Wrapper::over_release(
        old.signature().clone(),
        old.source().to_string(),
        old.release().clone(),
        old.bindings().to_vec(),
    )
    .unwrap();
    mdm.hydrate_wrapper(replacement).unwrap();
    assert_eq!(bytes(&mdm, "s0_v1"), 0);
    assert_eq!(total(&mdm), resident - retired);
    let refill = served(&mdm);
    assert_eq!(refill, multi + indexed(&mdm, "s0_v1"));
    assert_eq!(total(&mdm), resident);
    assert_eq!(served(&mdm), multi);
}

#[test]
fn lav_results_are_monotonic_under_releases() {
    let _serial = serial();
    // Synthetic: each extra version adds rows, never removes them.
    let config = WorkloadConfig {
        concepts: 2,
        features_per_concept: 2,
        versions_per_source: 1,
        rows_per_wrapper: 30,
        seed: 5,
    };
    let mut eco = build(&config);
    let mut previous_rows = {
        let mdm = mdm_from_synthetic(&eco).unwrap();
        mdm.query(&chain_walk(&eco, 2)).unwrap().table.len()
    };
    for round in 0..3 {
        evolve_all(&mut eco, 1, 100 + round);
        let mdm = mdm_from_synthetic(&eco).unwrap();
        let rows = mdm.query(&chain_walk(&eco, 2)).unwrap().table.len();
        assert!(
            rows >= previous_rows,
            "round {round}: rows dropped {previous_rows} -> {rows}"
        );
        previous_rows = rows;
    }
}

#[test]
fn gav_goes_stale_where_lav_does_not() {
    let _serial = serial();
    let eco = football::build_default();
    let mut mdm = usecase::football_mdm(&eco).unwrap();
    // Freeze GAV at design time (v1 only).
    let gav = mdm.derive_gav().unwrap();

    // Evolution happens.
    usecase::register_players_v2(&mut mdm, &eco).unwrap();

    // LAV answers the walk over both versions.
    let lav_answer = mdm.query(&usecase::figure8_walk()).unwrap();
    let lav_rows = lav_answer.table.len();

    // GAV still rewrites (the old wrappers exist) but scans v1 only: its
    // result is a strict subset.
    let (gav_cq, gav_plan, _) = gav
        .rewrite(mdm.ontology(), &usecase::figure8_walk())
        .unwrap();
    assert!(!gav_cq.atoms.contains(&"w3".to_string()));
    let gav_table = mdm_relational::Executor::new(mdm.catalog())
        .run(&gav_plan)
        .unwrap();
    assert!(
        gav_table.len() < lav_rows,
        "GAV ({}) must miss rows LAV ({lav_rows}) returns",
        gav_table.len()
    );

    // And the v2-only feature is simply unanswerable for stale GAV.
    let nationality_walk = mdm_core::Walk::new()
        .feature(&usecase::ex("Player"), &usecase::ex("playerId"))
        .feature(&usecase::ex("Player"), &usecase::ex("nationality"));
    assert!(gav.rewrite(mdm.ontology(), &nationality_walk).is_err());
    // While LAV answers it.
    assert!(mdm.query(&nationality_walk).is_ok());
}

#[test]
fn randomized_evolution_stream_keeps_lav_answering() {
    let _serial = serial();
    // 10 evolution events over a 3-concept chain; after every event the
    // walk must still rewrite and return at least the original rows.
    let config = WorkloadConfig {
        concepts: 3,
        features_per_concept: 2,
        versions_per_source: 1,
        rows_per_wrapper: 15,
        seed: 77,
    };
    let mut eco = build(&config);
    let baseline = {
        let mdm = mdm_from_synthetic(&eco).unwrap();
        mdm.query(&chain_walk(&eco, 3)).unwrap().table.len()
    };
    assert!(baseline > 0);
    for event in 0..10 {
        evolve_all(&mut eco, 1, 1000 + event);
        let mdm = mdm_from_synthetic(&eco).unwrap();
        let walk = chain_walk(&eco, 3);
        match mdm.query(&walk) {
            Ok(answer) => assert!(
                answer.table.len() >= baseline,
                "event {event}: {} < baseline {baseline}",
                answer.table.len()
            ),
            Err(e) => {
                // The only acceptable failure is the UCQ-width guard; a
                // rewriting crash would reproduce the problem MDM solves.
                assert!(
                    e.message().contains("union branches"),
                    "event {event}: unexpected failure {e}"
                );
                return;
            }
        }
    }
}

#[test]
fn breaking_changes_produce_dangling_bindings_outside_mdm() {
    let _serial = serial();
    // Quantifies the failure mode for an unmanaged consumer: every breaking
    // change leaves at least one dangling binding in a wrapper that was not
    // re-bound; non-breaking changes leave none.
    use mdm_wrappers::evolution::{ChangeKind, EvolvingSource, FieldType, SchemaSpec};
    use mdm_wrappers::wrapper::{Signature, Wrapper};

    let schema = SchemaSpec::new([
        ("id", FieldType::Int),
        ("name", FieldType::Text),
        ("rating", FieldType::Int),
    ]);
    let mut source = EvolvingSource::new("API", schema, 10, 3);
    let bind_v = |source: &EvolvingSource, version: u32| {
        Wrapper::over_release(
            Signature::new(format!("naive_v{version}"), ["id", "name", "rating"]).unwrap(),
            "API",
            source.endpoint.release(version).unwrap().clone(),
            [("id", "id"), ("name", "name"), ("rating", "rating")],
        )
        .unwrap()
    };

    // Non-breaking: ADD.
    source
        .evolve(ChangeKind::AddField {
            name: "bonus".to_string(),
            field_type: FieldType::Int,
        })
        .unwrap();
    assert!(bind_v(&source, 2).dangling_bindings().unwrap().is_empty());

    // Breaking: RENAME.
    source
        .evolve(ChangeKind::RenameField {
            from: "name".to_string(),
            to: "full_name".to_string(),
        })
        .unwrap();
    assert_eq!(
        bind_v(&source, 3).dangling_bindings().unwrap(),
        vec!["name"]
    );

    // Breaking: REMOVE.
    source
        .evolve(ChangeKind::RemoveField {
            name: "rating".to_string(),
        })
        .unwrap();
    let naive_v4 = bind_v(&source, 4);
    let dangling = naive_v4.dangling_bindings().unwrap();
    assert!(dangling.contains(&"rating"));
}
