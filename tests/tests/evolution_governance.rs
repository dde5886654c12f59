//! The governance-of-evolution scenario (E8) and the LAV-vs-GAV
//! differential under randomized evolution streams (the measured core of
//! experiment P3).

use mdm_core::synthetic::{chain_walk, mdm_from_synthetic};
use mdm_core::usecase;
use mdm_relational::{Deadline, Layout};
use mdm_wrappers::football;
use mdm_wrappers::workload::{build, evolve_all, WorkloadConfig};
use mdm_wrappers::Wrapper;

#[test]
fn e8_queries_survive_the_breaking_release() {
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
/// on either plane and any pool width, and a fetch is still drawn once per
/// wrapper per query however many branches share it.
#[test]
fn resident_columns_never_outlive_the_release_they_encode() {
    let walk = usecase::figure8_walk();
    for layout in [Layout::Columnar, Layout::Row] {
        for threads in [1, 4] {
            let eco = football::build_default();
            let mut mdm = usecase::football_mdm(&eco).unwrap();
            mdm.set_layout(layout);
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
                "{layout:?}/{threads}: stale payload served after re-registration"
            );
            assert_eq!(rehydrated, mdm.query(&walk).unwrap().render());

            // A new release of the same source.
            usecase::register_players_v2(&mut mdm, &eco).unwrap();
            let released = served(&mdm);
            assert!(
                released.contains("Zlatan Ibrahimovic"),
                "{layout:?}/{threads}"
            );
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
                assert_eq!(
                    after - before,
                    1,
                    "{layout:?}/{threads}: {before} -> {after}"
                );
            }
        }
    }
}

#[test]
fn lav_results_are_monotonic_under_releases() {
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
