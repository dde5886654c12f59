//! Property tests for the rewriting algorithm over randomized synthetic
//! ecosystems: structural invariants of the UCQ and behavioural invariants
//! under schema evolution.

use proptest::prelude::*;

use mdm_core::synthetic::{chain_walk, mdm_from_synthetic};
use mdm_wrappers::workload::{build, evolve_all, WorkloadConfig};

fn arb_config() -> impl Strategy<Value = WorkloadConfig> {
    (1usize..4, 1usize..4, 1usize..3, 5usize..30, 0u64..1000).prop_map(
        |(concepts, features, versions, rows, seed)| WorkloadConfig {
            concepts,
            features_per_concept: features,
            versions_per_source: versions,
            rows_per_wrapper: rows,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural invariants of every rewriting:
    /// * every union branch projects exactly the walk's features, in order;
    /// * every join condition touches an identifier or foreign-key column
    ///   (the only joins the BDI ontology permits);
    /// * atoms are distinct within a branch.
    #[test]
    fn rewriting_invariants(config in arb_config()) {
        let eco = build(&config);
        let mdm = mdm_from_synthetic(&eco).unwrap();
        let walk = chain_walk(&eco, config.concepts);
        let rewriting = match mdm.rewrite(&walk) {
            Ok(r) => r,
            Err(e) => {
                // Only the explicit enumeration guard may fire.
                prop_assert!(
                    e.message().contains("union branches"),
                    "unexpected error: {e}"
                );
                return Ok(());
            }
        };
        let expected_width = walk.all_features().len();
        for cq in &rewriting.queries {
            prop_assert_eq!(cq.projections.len(), expected_width);
            // Projections are in walk order: feature IRIs must match.
            for ((feature, _), expected) in cq.projections.iter().zip(walk.all_features()) {
                prop_assert_eq!(feature, &expected);
            }
            let mut seen = std::collections::BTreeSet::new();
            for atom in &cq.atoms {
                prop_assert!(seen.insert(atom.clone()), "duplicate atom {atom}");
            }
            for ((_, ca), (_, cb)) in &cq.joins {
                for column in [ca, cb] {
                    prop_assert!(
                        column == "id" || column.ends_with("_next"),
                        "join on non-identifier column '{column}'"
                    );
                }
            }
        }
    }

    /// Rewriting is deterministic: same metadata, same plan.
    #[test]
    fn rewriting_is_deterministic(config in arb_config()) {
        let walk_a = {
            let eco = build(&config);
            let mdm = mdm_from_synthetic(&eco).unwrap();
            mdm.rewrite(&chain_walk(&eco, config.concepts))
                .map(|r| r.algebra())
        };
        let walk_b = {
            let eco = build(&config);
            let mdm = mdm_from_synthetic(&eco).unwrap();
            mdm.rewrite(&chain_walk(&eco, config.concepts))
                .map(|r| r.algebra())
        };
        match (walk_a, walk_b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergent outcomes: {a:?} vs {b:?}"),
        }
    }

    /// Adding wrapper versions never removes result tuples (monotonicity of
    /// LAV certain answers under new sources).
    #[test]
    fn results_monotonic_under_releases(
        config in arb_config(),
        evolution_seed in 0u64..1000,
    ) {
        let mut eco = build(&config);
        let walk_span = config.concepts.min(2);
        let before = {
            let mdm = mdm_from_synthetic(&eco).unwrap();
            match mdm.query(&chain_walk(&eco, walk_span)) {
                Ok(answer) => answer.table.rows().to_vec(),
                Err(_) => return Ok(()),
            }
        };
        evolve_all(&mut eco, 1, evolution_seed);
        let mdm = mdm_from_synthetic(&eco).unwrap();
        let after = match mdm.query(&chain_walk(&eco, walk_span)) {
            Ok(answer) => answer.table.rows().to_vec(),
            Err(e) => {
                prop_assert!(e.message().contains("union branches"), "{e}");
                return Ok(());
            }
        };
        for row in &before {
            prop_assert!(after.contains(row), "lost row {row:?} after release");
        }
    }

    /// Metadata snapshots round-trip for arbitrary synthetic ecosystems.
    #[test]
    fn snapshot_round_trip(config in arb_config()) {
        let eco = build(&config);
        let mdm = mdm_from_synthetic(&eco).unwrap();
        let restored = mdm_core::Mdm::restore_metadata(&mdm.snapshot()).unwrap();
        prop_assert_eq!(
            restored.ontology().concepts(),
            mdm.ontology().concepts()
        );
        prop_assert_eq!(
            restored.ontology().wrappers().len(),
            mdm.ontology().wrappers().len()
        );
        let walk = chain_walk(&eco, config.concepts);
        let a = mdm.rewrite(&walk).map(|r| r.algebra());
        let b = restored.rewrite(&walk).map(|r| r.algebra());
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "divergent outcomes: {x:?} vs {y:?}"),
        }
    }

    /// The GAV baseline never returns more rows than LAV; its plan is one
    /// conjunctive query's.
    #[test]
    fn gav_is_single_branch_and_subset(config in arb_config()) {
        let eco = build(&config);
        let mdm = mdm_from_synthetic(&eco).unwrap();
        let walk = chain_walk(&eco, config.concepts.min(2));
        let lav = match mdm.query(&walk) {
            Ok(a) => a,
            Err(_) => return Ok(()),
        };
        let gav = mdm.derive_gav().unwrap();
        let Ok((_, plan, _)) = gav.rewrite(mdm.ontology(), &walk) else {
            return Ok(());
        };
        let table = match mdm_relational::Executor::new(mdm.catalog()).run(&plan) {
            Ok(t) => t,
            Err(_) => return Ok(()),
        };
        prop_assert!(table.len() <= lav.table.len());
        for row in table.rows() {
            prop_assert!(
                lav.table.rows().contains(row),
                "GAV row {row:?} missing from LAV answer"
            );
        }
    }
}
