//! Property tests for the walk notation and the assistance engine.

use proptest::prelude::*;

use mdm_core::synthetic::{self, mdm_from_synthetic};
use mdm_core::walk_dsl::{parse_walk, walk_to_text};
use mdm_core::{BdiOntology, Walk};
use mdm_rdf::term::Iri;
use mdm_rdf::vocab::EXAMPLE_NS;
use mdm_wrappers::workload::{build, WorkloadConfig};

/// Random walks over a synthetic chain ontology.
fn arb_walk(concepts: usize, features: usize) -> impl Strategy<Value = Walk> {
    let concept_feature_picks = proptest::collection::vec((0..concepts, 0..features), 1..6);
    let edge_picks = proptest::collection::vec(0..concepts.saturating_sub(1).max(1), 0..4);
    (concept_feature_picks, edge_picks).prop_map(move |(picks, edges)| {
        let mut walk = Walk::new();
        for (c, f) in picks {
            walk = walk.feature(
                &synthetic::concept_iri(c),
                &synthetic::feature_iri(c, &format!("c{c}_f{f}")),
            );
        }
        if concepts > 1 {
            for e in edges {
                walk = walk.relation(
                    &synthetic::concept_iri(e),
                    &synthetic::relation_iri(e),
                    &synthetic::concept_iri(e + 1),
                );
            }
        }
        walk
    })
}

/// The characters a name may hold that the notation itself also uses.
const NAME_CHARS: [char; 5] = ['a', 'b', '-', '.', '_'];

/// An IRI under `ex:`, written prefixed, or under a namespace no prefix
/// covers, ending in a `#` fragment and written as `<…>`.
fn arb_iri() -> impl Strategy<Value = Iri> {
    (
        any::<bool>(),
        proptest::collection::vec(0..NAME_CHARS.len(), 1..6),
    )
        .prop_map(|(prefixed, chars)| {
            let name: String = chars.into_iter().map(|c| NAME_CHARS[c]).collect();
            if prefixed {
                Iri::new(format!("{EXAMPLE_NS}{name}"))
            } else {
                Iri::new(format!("http://other.org/o#{name}"))
            }
        })
}

/// Random walks over names like `ex:Player-Card` and `<…o#a.b>`.
fn arb_named_walk() -> impl Strategy<Value = Walk> {
    (
        proptest::collection::vec((arb_iri(), arb_iri()), 1..4),
        proptest::collection::vec((arb_iri(), arb_iri(), arb_iri()), 0..3),
    )
        .prop_map(|(features, relations)| {
            let mut walk = Walk::new();
            for (concept, feature) in features {
                walk = walk.feature(&concept, &feature);
            }
            for (from, property, to) in relations {
                walk = walk.relation(&from, &property, &to);
            }
            walk
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// parse(print(walk)) == walk when names hold `-`, `.`, `_` or a `#`.
    #[test]
    fn walk_notation_round_trips_awkward_names(walk in arb_named_walk()) {
        let ontology = BdiOntology::new();
        let text = walk_to_text(&walk, &ontology);
        let reparsed = parse_walk(&text, &ontology).map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert_eq!(reparsed, walk, "{}", text);
    }

    /// parse(print(walk)) == walk for arbitrary walks.
    #[test]
    fn walk_notation_round_trips(walk in arb_walk(3, 3)) {
        let eco = build(&WorkloadConfig {
            concepts: 3,
            features_per_concept: 3,
            versions_per_source: 1,
            rows_per_wrapper: 1,
            seed: 1,
        });
        let mdm = mdm_from_synthetic(&eco).unwrap();
        let text = walk_to_text(&walk, mdm.ontology());
        let reparsed = parse_walk(&text, mdm.ontology()).unwrap();
        prop_assert_eq!(reparsed, walk);
    }

    /// Suggestions always reference attributes of the wrapper and features
    /// of the global graph; the drafted builder never panics.
    #[test]
    fn assist_suggestions_are_well_formed(seed in 0u64..200) {
        let eco = build(&WorkloadConfig {
            concepts: 2,
            features_per_concept: 3,
            versions_per_source: 2,
            rows_per_wrapper: 1,
            seed,
        });
        let mdm = mdm_from_synthetic(&eco).unwrap();
        for wrapper in mdm.ontology().wrappers() {
            let name = wrapper.local_name();
            let draft = mdm_core::assist::suggest_mapping(mdm.ontology(), name).unwrap();
            let attribute_names: Vec<String> = mdm
                .ontology()
                .attributes_of(&wrapper)
                .iter()
                .map(|a| mdm_core::BdiOntology::attribute_name(a).to_string())
                .collect();
            for s in draft.accepted.iter().chain(&draft.alternatives) {
                prop_assert!(attribute_names.contains(&s.attribute));
                prop_assert!(
                    mdm.ontology().concept_of_feature(&s.feature).is_some(),
                    "suggested feature {} has no owner",
                    s.feature
                );
            }
            // Building a draft never panics regardless of applicability.
            let _ = draft.to_builder(mdm.ontology());
        }
    }
}
