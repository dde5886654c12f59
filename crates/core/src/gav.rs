//! A GAV (global-as-view) baseline rewriter.
//!
//! The paper motivates LAV by contrasting it with OBDA's GAV mappings,
//! "where elements of the ontology are characterized in terms of a query
//! over the source schemata … faulty upon source schema changes" (§1). This
//! module implements that baseline so the robustness gap can be *measured*
//! (experiment P3 in DESIGN.md):
//!
//! * [`GavMapping::derive`] freezes, at definition time, one
//!   `(wrapper, column)` query per feature and one witness per relation —
//!   the characterisation GAV prescribes;
//! * [`GavMapping::rewrite`] unfolds a walk through the frozen bindings —
//!   fast and single-branch, as GAV promises;
//! * but when sources release new schema versions, the frozen bindings keep
//!   pointing at the old wrapper: results silently lose the new version's
//!   rows, and features that only newer wrappers provide are unanswerable
//!   until a human re-derives the mapping ([`GavMapping::refresh`]).

use std::collections::BTreeMap;

use mdm_rdf::term::Iri;

use crate::error::MdmError;
use crate::expansion::expand;
use crate::inter::{ConjunctiveQuery, QualifiedColumn};
use crate::intra::coverages;
use crate::mapping::wrappers_covering_relation;
use crate::ontology::BdiOntology;
use crate::rewrite::plan_for_cq;
use crate::walk::Walk;
use mdm_relational::Plan;

/// The output of a GAV unfolding: the single conjunctive query, the
/// executable plan, and the output column names.
pub type GavRewrite = (ConjunctiveQuery, Plan, Vec<String>);

/// A frozen GAV mapping.
#[derive(Clone, Debug, Default)]
pub struct GavMapping {
    /// feature → (wrapper name, column).
    feature_queries: BTreeMap<Iri, (String, String)>,
    /// concept → (wrapper name, id column) anchor used for joins.
    concept_anchors: BTreeMap<Iri, (String, String)>,
    /// (concept, wrapper) → the wrapper's column for the concept's id.
    wrapper_ids: BTreeMap<(Iri, String), String>,
    /// relation (from, property, to) → (wrapper, from id column, to id column).
    edge_witnesses: BTreeMap<(Iri, Iri, Iri), (String, String, String)>,
}

impl GavMapping {
    /// Derives a GAV mapping from the ontology's *current* LAV metadata:
    /// for every feature the first covering wrapper, for every relation the
    /// first witness. This models the one-off design-time characterisation
    /// a GAV/OBDA deployment performs.
    pub fn derive(ontology: &BdiOntology) -> Result<Self, MdmError> {
        let mut mapping = GavMapping::default();
        for concept in ontology.concepts() {
            let features = ontology.features_of(&concept);
            if features.is_empty() {
                continue;
            }
            let Ok((identifier, covers)) = coverages(ontology, &concept, &features) else {
                continue; // concept without identifier — not queryable
            };
            if let Some(anchor) = covers.first() {
                mapping.concept_anchors.insert(
                    concept.clone(),
                    (anchor.wrapper_name.clone(), anchor.id_column.clone()),
                );
            }
            for cover in &covers {
                mapping.wrapper_ids.insert(
                    (concept.clone(), cover.wrapper_name.clone()),
                    cover.id_column.clone(),
                );
            }
            for feature in &features {
                // First wrapper (deterministic order) providing the feature.
                if let Some(cover) = covers
                    .iter()
                    .find(|c| c.feature_columns.contains_key(feature))
                {
                    mapping.feature_queries.insert(
                        feature.clone(),
                        (
                            cover.wrapper_name.clone(),
                            cover.feature_columns[feature].clone(),
                        ),
                    );
                }
            }
            let _ = identifier;
        }
        for (from, property, to) in ontology.relations() {
            let witnesses = wrappers_covering_relation(ontology, &from, &property, &to);
            let Some(witness) = witnesses.first() else {
                continue;
            };
            let from_id = ontology.identifier_of(&from);
            let to_id = ontology.identifier_of(&to);
            let (Some(from_id), Some(to_id)) = (from_id, to_id) else {
                continue;
            };
            let from_cols = ontology.attributes_mapping_to(witness, &from_id);
            let to_cols = ontology.attributes_mapping_to(witness, &to_id);
            if let (Some(f), Some(t)) = (from_cols.first(), to_cols.first()) {
                mapping.edge_witnesses.insert(
                    (from, property, to),
                    (
                        witness.local_name().to_string(),
                        BdiOntology::attribute_name(f).to_string(),
                        BdiOntology::attribute_name(t).to_string(),
                    ),
                );
            }
        }
        Ok(mapping)
    }

    /// Re-derives from current metadata — the manual maintenance step GAV
    /// forces on stewards after every release.
    pub fn refresh(&mut self, ontology: &BdiOntology) -> Result<(), MdmError> {
        *self = GavMapping::derive(ontology)?;
        Ok(())
    }

    /// Number of bound features (for diagnostics).
    pub fn bound_features(&self) -> usize {
        self.feature_queries.len()
    }

    /// The frozen query for a feature, if bound.
    pub fn feature_query(&self, feature: &Iri) -> Option<&(String, String)> {
        self.feature_queries.get(feature)
    }

    /// Unfolds a walk through the frozen bindings into a single conjunctive
    /// query (GAV rewriting is plain unfolding, §1).
    ///
    /// Errors when the walk touches a feature, concept or relation the
    /// frozen mapping does not bind — the "crash" mode of GAV under
    /// evolution.
    pub fn rewrite(&self, ontology: &BdiOntology, walk: &Walk) -> Result<GavRewrite, MdmError> {
        let expanded = expand(walk, ontology)?;
        let mut atoms: Vec<String> = Vec::new();
        let mut joins: Vec<(QualifiedColumn, QualifiedColumn)> = Vec::new();
        let push_atom = |name: &str, atoms: &mut Vec<String>| {
            if !atoms.iter().any(|a| a == name) {
                atoms.push(name.to_string());
            }
        };
        let push_join =
            |a: QualifiedColumn,
             b: QualifiedColumn,
             joins: &mut Vec<(QualifiedColumn, QualifiedColumn)>| {
                if a == b {
                    return;
                }
                let (x, y) = if a <= b { (a, b) } else { (b, a) };
                if !joins.contains(&(x.clone(), y.clone())) {
                    joins.push((x, y));
                }
            };

        // Per concept: anchor + per-feature wrappers joined on ids.
        for concept in expanded.walk.concepts() {
            let anchor = self.concept_anchors.get(concept).ok_or_else(|| {
                MdmError::Rewrite(format!(
                    "GAV mapping has no binding for concept '{concept}'"
                ))
            })?;
            push_atom(&anchor.0, &mut atoms);
            let identifier = ontology
                .identifier_of(concept)
                .ok_or_else(|| MdmError::Rewrite(format!("'{concept}' has no identifier")))?;
            for feature in expanded.walk.features_of(concept) {
                let (wrapper, _) = self.feature_queries.get(feature).ok_or_else(|| {
                    MdmError::Rewrite(format!(
                        "GAV mapping has no binding for feature '{feature}' \
                         (stale mapping under evolution?)"
                    ))
                })?;
                if wrapper != &anchor.0 {
                    // The feature comes from a different wrapper: join it to
                    // the anchor on the identifier columns frozen for this
                    // (concept, wrapper) pair at derivation time.
                    let feature_wrapper_id = self
                        .wrapper_ids
                        .get(&(concept.clone(), wrapper.clone()))
                        .ok_or_else(|| {
                            MdmError::Rewrite(format!(
                                "GAV mapping lacks the id column of '{wrapper}' \
                                 for concept '{concept}' (identifier '{identifier}')"
                            ))
                        })?
                        .clone();
                    push_atom(wrapper, &mut atoms);
                    push_join(
                        (anchor.0.clone(), anchor.1.clone()),
                        (wrapper.clone(), feature_wrapper_id),
                        &mut joins,
                    );
                }
            }
        }

        // Edges through the frozen witnesses.
        for edge in walk.relations() {
            let (witness, from_col, to_col) = self.edge_witnesses.get(edge).ok_or_else(|| {
                let (from, property, to) = edge;
                MdmError::Rewrite(format!(
                    "GAV mapping has no witness for '{from}' -{property}-> '{to}'"
                ))
            })?;
            push_atom(witness, &mut atoms);
            let (from, _, to) = edge;
            for (concept, column) in [(from, from_col), (to, to_col)] {
                let anchor = &self.concept_anchors[concept];
                push_join(
                    (witness.clone(), column.clone()),
                    anchor.clone(),
                    &mut joins,
                );
            }
        }

        // Projections over the original walk features.
        let mut projections = Vec::new();
        let mut output_columns = Vec::new();
        for concept in walk.concepts() {
            for feature in walk.features_of(concept) {
                let (wrapper, column) = self.feature_queries.get(feature).ok_or_else(|| {
                    MdmError::Rewrite(format!(
                        "GAV mapping has no binding for feature '{feature}'"
                    ))
                })?;
                projections.push((feature.clone(), (wrapper.clone(), column.clone())));
                output_columns.push(ontology.compact(feature));
            }
        }

        let cq = ConjunctiveQuery {
            atoms,
            joins,
            projections,
        };
        let plan = plan_for_cq(&cq, &output_columns)?.distinct();
        Ok((cq, plan, output_columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::release::register_wrapper;
    use crate::testkit::{evolved_ontology, ex, figure7_ontology, figure8_walk, strings};

    #[test]
    fn derive_binds_every_mapped_feature() {
        let o = figure7_ontology();
        let gav = GavMapping::derive(&o).unwrap();
        // 9 features in Figure 5's excerpt, all mapped by w1/w2.
        assert_eq!(gav.bound_features(), 9);
        assert_eq!(
            gav.feature_query(&ex("playerName")),
            Some(&("w1".to_string(), "pName".to_string()))
        );
    }

    #[test]
    fn gav_rewrites_figure8_to_single_branch() {
        let o = figure7_ontology();
        let gav = GavMapping::derive(&o).unwrap();
        let (cq, plan, outputs) = gav.rewrite(&o, &figure8_walk()).unwrap();
        assert_eq!(cq.atoms, vec!["w1", "w2"]);
        assert_eq!(plan.scanned_relations(), vec!["w1", "w2"]);
        assert_eq!(outputs, vec!["ex:playerName", "ex:teamName"]);
    }

    #[test]
    fn stale_gav_misses_new_version() {
        // Derive GAV before the evolution, then evolve: the new feature is
        // unanswerable and the plan still scans only the old wrapper.
        let o_before = figure7_ontology();
        let gav = GavMapping::derive(&o_before).unwrap();
        let o_after = evolved_ontology();
        // The new feature is unknown to the frozen mapping.
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerId"))
            .feature(&ex("Player"), &ex("nationality"));
        let err = gav.rewrite(&o_after, &walk).unwrap_err();
        assert!(err.message().contains("no binding for feature"));
        // The Figure 8 walk still rewrites, but only over w1/w2 — no w3.
        let (cq, _, _) = gav.rewrite(&o_after, &figure8_walk()).unwrap();
        assert!(!cq.atoms.contains(&"w3".to_string()));
    }

    #[test]
    fn refreshed_gav_answers_again_but_still_single_version() {
        let o = evolved_ontology();
        let mut gav = GavMapping::derive(&figure7_ontology()).unwrap();
        gav.refresh(&o).unwrap();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerId"))
            .feature(&ex("Player"), &ex("nationality"));
        let (cq, _, _) = gav.rewrite(&o, &walk).unwrap();
        // Answerable now, but as a single branch (w1 ⋈ w3 or w3 alone),
        // never the LAV union of both versions.
        assert!(!cq.atoms.is_empty());
    }

    #[test]
    fn unbound_concept_is_an_error() {
        let mut o = figure7_ontology();
        let gav = GavMapping::derive(&o).unwrap();
        let stadium = ex("Stadium");
        o.add_concept(&stadium).unwrap();
        o.add_identifier(&stadium, &ex("stadiumId")).unwrap();
        register_wrapper(&mut o, "TeamsAPI", "w9", 1, &strings(&["sid"])).unwrap();
        let walk = Walk::new().feature(&stadium, &ex("stadiumId"));
        let err = gav.rewrite(&o, &walk).unwrap_err();
        assert!(err.message().contains("no binding for concept"));
    }
}
