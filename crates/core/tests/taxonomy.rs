//! Taxonomy-aware rewriting (the §2.1 "we also allow to define taxonomies"
//! capability, carried through the whole pipeline): wrappers mapped to
//! subconcepts answer walks posed over the superconcept.
//!
//! Scenario: `Goalkeeper ⊑ Player`. A dedicated Goalkeepers API serves only
//! goalkeepers (with the shared player identifier); the general Players API
//! serves outfield players. A walk over `Player` must union both.

use mdm_core::mapping::MappingBuilder;
use mdm_core::{Mdm, Walk};
use mdm_rdf::Iri;
use mdm_wrappers::rest::{Format, Release};
use mdm_wrappers::wrapper::{Signature, Wrapper};

fn ex(local: &str) -> Iri {
    Iri::new(format!("{}{local}", mdm_rdf::vocab::EXAMPLE_NS))
}

/// Builds the taxonomy system: Player (super) with playerId/playerName,
/// Goalkeeper ⊑ Player adding a `saves` feature; one wrapper per API.
fn taxonomy_mdm() -> Mdm {
    let mut mdm = Mdm::new();
    let player = ex("Player");
    let goalkeeper = ex("Goalkeeper");
    mdm.define_concept(&player).unwrap();
    mdm.define_concept(&goalkeeper).unwrap();
    mdm.define_subconcept(&goalkeeper, &player).unwrap();
    mdm.define_identifier(&player, &ex("playerId")).unwrap();
    mdm.define_feature(&player, &ex("playerName")).unwrap();
    // A subconcept-specific feature.
    mdm.define_feature(&goalkeeper, &ex("saves")).unwrap();

    mdm.add_source("PlayersAPI").unwrap();
    mdm.add_source("GoalkeepersAPI").unwrap();

    let outfield = Wrapper::identity_over_release(
        Signature::new("wp", ["id", "name"]).unwrap(),
        "PlayersAPI",
        Release {
            version: 1,
            format: Format::Json,
            body: r#"[{"id":1,"name":"Messi"},{"id":2,"name":"Lewandowski"}]"#.to_string(),
            notes: String::new(),
        },
    )
    .unwrap();
    mdm.register_wrapper(outfield).unwrap();
    mdm.define_mapping(
        MappingBuilder::for_wrapper("wp")
            .cover_concept(&player)
            .cover_feature(&ex("playerId"))
            .cover_feature(&ex("playerName"))
            .same_as("id", &ex("playerId"))
            .same_as("name", &ex("playerName")),
    )
    .unwrap();

    let keepers = Wrapper::identity_over_release(
        Signature::new("wg", ["id", "name", "saves"]).unwrap(),
        "GoalkeepersAPI",
        Release {
            version: 1,
            format: Format::Json,
            body: r#"[{"id":10,"name":"Neuer","saves":120},{"id":11,"name":"Buffon","saves":140}]"#
                .to_string(),
            notes: String::new(),
        },
    )
    .unwrap();
    mdm.register_wrapper(keepers).unwrap();
    // The goalkeeper wrapper covers the *subconcept*, inheriting Player's
    // identifier and name features.
    mdm.define_mapping(
        MappingBuilder::for_wrapper("wg")
            .cover_concept(&goalkeeper)
            .cover_feature(&ex("playerId"))
            .cover_feature(&ex("playerName"))
            .cover_feature(&ex("saves"))
            .same_as("id", &ex("playerId"))
            .same_as("name", &ex("playerName"))
            .same_as("saves", &ex("saves")),
    )
    .unwrap();
    mdm
}

#[test]
fn subconcepts_inherit_the_super_identifier() {
    let mdm = taxonomy_mdm();
    assert_eq!(
        mdm.ontology().identifier_of(&ex("Goalkeeper")),
        Some(ex("playerId"))
    );
    assert_eq!(
        mdm.ontology().subconcepts_of(&ex("Player")),
        vec![ex("Player"), ex("Goalkeeper")]
    );
    let inherited = mdm.ontology().inherited_features_of(&ex("Goalkeeper"));
    assert!(inherited.contains(&ex("playerName")));
    assert!(inherited.contains(&ex("saves")));
}

#[test]
fn super_walk_unions_sub_and_super_wrappers() {
    let mdm = taxonomy_mdm();
    let walk = Walk::new().feature(&ex("Player"), &ex("playerName"));
    let answer = mdm.query(&walk).unwrap();
    assert_eq!(
        answer.rewriting.branch_count(),
        2,
        "expected wp ∪ wg: {}",
        answer.rewriting.algebra()
    );
    let rendered = answer.render();
    for name in ["Messi", "Lewandowski", "Neuer", "Buffon"] {
        assert!(rendered.contains(name), "missing {name}:\n{rendered}");
    }
}

/// The `wp ∪ wg` rewriting byte for byte: the goalkeeper branch first,
/// as the rewriting orders them, under δ.
#[test]
fn super_walk_algebra_is_pinned() {
    let mdm = taxonomy_mdm();
    let walk = Walk::new().feature(&ex("Player"), &ex("playerName"));
    assert_eq!(
        mdm.rewrite(&walk).unwrap().algebra(),
        "δ((π[wg.name→ex:playerName](wg) ∪ π[wp.name→ex:playerName](wp)))"
    );
}

#[test]
fn sub_walk_stays_on_sub_wrappers() {
    let mdm = taxonomy_mdm();
    // Goalkeeper walk requesting the inherited name: only wg answers.
    let walk = Walk::new().feature(&ex("Goalkeeper"), &ex("playerName"));
    let answer = mdm.query(&walk).unwrap();
    assert_eq!(answer.rewriting.branch_count(), 1);
    let rendered = answer.render();
    assert!(rendered.contains("Neuer"));
    assert!(!rendered.contains("Messi"));
}

#[test]
fn subconcept_specific_feature_from_super_walk_prunes_to_sub() {
    let mdm = taxonomy_mdm();
    // `saves` only exists on goalkeepers; a Player walk requesting it can
    // only be answered by the goalkeeper branch.
    let walk = Walk::new()
        .feature(&ex("Player"), &ex("playerName"))
        .feature(&ex("Player"), &ex("saves"));
    let err_or_answer = mdm.query(&walk);
    // `saves` belongs to Goalkeeper; requesting it under Player is invalid
    // (walks request features where they are declared or below).
    assert!(err_or_answer.is_err());
    // Requested under Goalkeeper it answers.
    let walk = Walk::new()
        .feature(&ex("Goalkeeper"), &ex("playerName"))
        .feature(&ex("Goalkeeper"), &ex("saves"));
    let answer = mdm.query(&walk).unwrap();
    assert_eq!(answer.table.len(), 2);
}

#[test]
fn mixed_covers_do_not_join_across_taxonomy_branches() {
    let mdm = taxonomy_mdm();
    let walk = Walk::new().feature(&ex("Player"), &ex("playerName"));
    let rewriting = mdm.rewrite(&walk).unwrap();
    // No branch joins wp with wg (that would intersect disjoint instance
    // sets); each branch is a single wrapper.
    for cq in &rewriting.queries {
        assert_eq!(cq.atoms.len(), 1, "unexpected join in {cq:?}");
    }
}

#[test]
fn contour_spanning_taxonomy_levels_is_connected() {
    // A full-dump wrapper covering Player AND Goalkeeper (no relation edge
    // between them exists — the taxonomy edge is the connection).
    let mut mdm = taxonomy_mdm();
    let dump = Wrapper::identity_over_release(
        Signature::new("wd", ["id", "name", "saves"]).unwrap(),
        "GoalkeepersAPI",
        Release {
            version: 2,
            format: Format::Json,
            body: r#"[{"id":20,"name":"Casillas","saves":90}]"#.to_string(),
            notes: String::new(),
        },
    )
    .unwrap();
    mdm.register_wrapper(dump).unwrap();
    mdm.define_mapping(
        MappingBuilder::for_wrapper("wd")
            .cover_concept(&ex("Player"))
            .cover_concept(&ex("Goalkeeper"))
            .cover_feature(&ex("playerId"))
            .cover_feature(&ex("playerName"))
            .cover_feature(&ex("saves"))
            .same_as("id", &ex("playerId"))
            .same_as("name", &ex("playerName"))
            .same_as("saves", &ex("saves")),
    )
    .expect("taxonomy edge connects the contour");
}

#[test]
fn taxonomy_survives_snapshot_restore() {
    let mdm = taxonomy_mdm();
    let restored = Mdm::restore_metadata(&mdm.snapshot()).unwrap();
    assert_eq!(restored.ontology().subconcepts_of(&ex("Player")).len(), 2);
    let walk = Walk::new().feature(&ex("Player"), &ex("playerName"));
    assert_eq!(restored.rewrite(&walk).unwrap().branch_count(), 2);
}
