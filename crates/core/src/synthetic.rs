//! Bridges `mdm-wrappers`' synthetic workloads into a fully-configured
//! [`Mdm`] instance — the harness used by the SUPERSEDE-style example and
//! the scaling/robustness benches (P1–P3, P6 in DESIGN.md).
//!
//! The synthetic ecosystem is a chain `c0 → c1 → … → c{n-1}`; this module
//! builds the matching global graph (one concept per source, one feature per
//! canonical attribute, `next` relations), registers every wrapper version,
//! and derives each wrapper's LAV mapping mechanically from its canonical
//! attribute names.

use mdm_rdf::term::Iri;
use mdm_wrappers::workload::SyntheticEcosystem;
use mdm_wrappers::Wrapper;

use crate::error::MdmError;
use crate::journal::MutationOp;
use crate::mapping::MappingBuilder;
use crate::mdm::Mdm;
use crate::walk::Walk;

/// Namespace for synthetic-domain IRIs.
pub const SYN_NS: &str = "http://www.essi.upc.edu/~snadal/synthetic/";

/// `syn:<local>`.
pub fn syn(local: &str) -> Iri {
    Iri::new(format!("{SYN_NS}{local}"))
}

/// The concept IRI of chain position `c`.
pub fn concept_iri(c: usize) -> Iri {
    syn(&format!("C{c}"))
}

/// The feature IRI for canonical attribute `name` of concept `c`. The
/// local name avoids `/` so the `syn:` prefix compacts it (`syn:C0_id`).
pub fn feature_iri(c: usize, name: &str) -> Iri {
    syn(&format!("C{c}_{name}"))
}

/// The relation IRI between concept `c` and `c+1`.
pub fn relation_iri(c: usize) -> Iri {
    syn(&format!("next{c}"))
}

/// Builds an [`Mdm`] with the ecosystem's ontology, wrappers and mappings.
pub fn mdm_from_synthetic(eco: &SyntheticEcosystem) -> Result<Mdm, MdmError> {
    let mut mdm = Mdm::new();
    mdm.apply(&MutationOp::BindPrefix {
        prefix: "syn".to_string(),
        namespace: SYN_NS.to_string(),
    })?;
    let concepts = eco.config.concepts;

    // Global graph.
    for c in 0..concepts {
        let concept = concept_iri(c);
        mdm.define_concept(&concept)?;
        for attribute in eco.concept_attributes(c) {
            let feature = feature_iri(c, &attribute);
            if attribute == "id" {
                mdm.define_identifier(&concept, &feature)?;
            } else {
                mdm.define_feature(&concept, &feature)?;
            }
        }
    }
    for c in 0..concepts.saturating_sub(1) {
        mdm.define_relation(&concept_iri(c), &relation_iri(c), &concept_iri(c + 1))?;
    }

    // Sources, wrappers, mappings.
    for source in &eco.sources {
        mdm.add_source(source.source.endpoint.name())?;
        for wrapper in &source.wrappers {
            register_synthetic_wrapper(&mut mdm, eco, source.concept, wrapper.clone())?;
        }
    }
    Ok(mdm)
}

/// Registers one synthetic wrapper plus its mechanical LAV mapping.
///
/// The mapping covers the wrapper's concept (all canonical attributes as
/// features); when the concept has a `next` foreign key, it also covers the
/// relation edge and the *next* concept's identifier — making the wrapper an
/// edge witness, like the paper's `w1` covering `sc:SportsTeam`'s id.
pub fn register_synthetic_wrapper(
    mdm: &mut Mdm,
    eco: &SyntheticEcosystem,
    concept: usize,
    wrapper: Wrapper,
) -> Result<(), MdmError> {
    let wrapper_name = wrapper.name().to_string();
    mdm.register_wrapper(wrapper)?;
    let concept_node = concept_iri(concept);
    let mut builder = MappingBuilder::for_wrapper(&wrapper_name).cover_concept(&concept_node);
    let has_next = concept + 1 < eco.config.concepts;
    for attribute in eco.concept_attributes(concept) {
        if attribute.ends_with("_next") {
            continue; // handled below as the edge link
        }
        let feature = feature_iri(concept, &attribute);
        builder = builder
            .cover_feature(&feature)
            .same_as(&attribute, &feature);
    }
    if has_next {
        let next_concept = concept_iri(concept + 1);
        let next_id = feature_iri(concept + 1, "id");
        builder = builder
            .cover_concept(&next_concept)
            .cover_feature(&next_id)
            .cover_relation(&concept_node, &relation_iri(concept), &next_concept)
            .same_as(&format!("c{concept}_next"), &next_id);
    }
    mdm.define_mapping(builder)?;
    Ok(())
}

/// A walk over the first `k` concepts of the chain, requesting one non-key
/// feature per concept (plus the relations linking them).
pub fn chain_walk(eco: &SyntheticEcosystem, k: usize) -> Walk {
    let mut walk = Walk::new();
    let k = k.min(eco.config.concepts);
    for c in 0..k {
        walk = walk.feature(&concept_iri(c), &feature_iri(c, &format!("c{c}_f0")));
    }
    for c in 0..k.saturating_sub(1) {
        walk = walk.relation(&concept_iri(c), &relation_iri(c), &concept_iri(c + 1));
    }
    walk
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_wrappers::workload::{build, WorkloadConfig};

    #[test]
    fn synthetic_mdm_answers_chain_walks() {
        let eco = build(&WorkloadConfig {
            concepts: 3,
            features_per_concept: 2,
            versions_per_source: 2,
            rows_per_wrapper: 20,
            seed: 11,
        });
        let mdm = mdm_from_synthetic(&eco).unwrap();
        // 3 sources × 2 versions.
        assert_eq!(mdm.catalog().len(), 6);
        for k in 1..=3 {
            let walk = chain_walk(&eco, k);
            let answer = mdm.query(&walk).unwrap();
            assert!(
                !answer.table.is_empty(),
                "k={k} returned no rows:\n{}",
                answer.rewriting.algebra()
            );
            // Union width grows with versions: ≥ 2^k branches expected
            // (each concept contributes ≥2 single-wrapper covers).
            assert!(
                answer.rewriting.branch_count() >= (1 << k.min(4)) / 2,
                "k={k}: only {} branches",
                answer.rewriting.branch_count()
            );
        }
    }

    #[test]
    fn deterministic_rewrite_across_builds() {
        let config = WorkloadConfig::default();
        let a = mdm_from_synthetic(&build(&config)).unwrap();
        let b = mdm_from_synthetic(&build(&config)).unwrap();
        let eco = build(&config);
        let walk = chain_walk(&eco, 2);
        assert_eq!(
            a.rewrite(&walk).unwrap().algebra(),
            b.rewrite(&walk).unwrap().algebra()
        );
    }
}
