//! Phase (c) of query rewriting: **inter-concept generation** (paper §2.4).
//!
//! "All partial walks are joined to obtain a union of conjunctive queries."
//! Every relation edge of the walk must be *witnessed* by a wrapper whose
//! LAV named graph covers the edge; that wrapper maps both endpoint
//! identifiers (guaranteed by mapping validation), so it supplies the join
//! columns linking the two concepts' partial walks.
//!
//! The cartesian combination of (per-concept alternative) × (per-edge
//! witness) choices — deduplicated — is the UCQ: one
//! [`ConjunctiveQuery`] per choice.
//!
//! The UCQ stays that product. Under δ, though, a branch that an earlier
//! one [covers](ConjunctiveQuery::covers) adds no row:
//! [`Rewriting::covered_by`](crate::rewrite::Rewriting::covered_by) names
//! that earlier branch, and the served path skips the covered one.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mdm_rdf::term::Iri;

use crate::error::MdmError;
use crate::intra::PartialWalk;
use crate::mapping::wrappers_covering_relation_taxonomic;
use crate::ontology::BdiOntology;
use crate::walk::Walk;

/// Upper bound on union branches; beyond this the ecosystem is mapped too
/// ambiguously for an enumerated UCQ to be useful.
pub const MAX_UCQ_BRANCHES: usize = 1024;

/// A qualified column: `(wrapper name, attribute name)`.
pub type QualifiedColumn = (String, String);

/// One conjunctive query over wrappers.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConjunctiveQuery {
    /// Wrapper relation names, in join order (first = leftmost scan).
    pub atoms: Vec<String>,
    /// Equi-join conditions between qualified columns.
    pub joins: Vec<(QualifiedColumn, QualifiedColumn)>,
    /// Output columns: `(feature, providing column)` in walk order.
    pub projections: Vec<(Iri, QualifiedColumn)>,
}

/// Canonical form used for deduplicating structurally identical branches.
type CanonicalKey = (
    BTreeSet<String>,
    BTreeSet<(QualifiedColumn, QualifiedColumn)>,
    Vec<(Iri, QualifiedColumn)>,
);

impl ConjunctiveQuery {
    /// A canonical key for deduplication: atom set + normalised join set +
    /// projections.
    fn canonical_key(&self) -> CanonicalKey {
        let atoms: BTreeSet<String> = self.atoms.iter().cloned().collect();
        let joins: BTreeSet<_> = self
            .joins
            .iter()
            .map(|(a, b)| {
                if a <= b {
                    (a.clone(), b.clone())
                } else {
                    (b.clone(), a.clone())
                }
            })
            .collect();
        (atoms, joins, self.projections.clone())
    }

    /// True when `self` contains `later` syntactically: `self`'s atoms and
    /// (normalised) join pairs are subsets of `later`'s, and both project
    /// the same `(wrapper, column)` at every position. `later` then joins
    /// more atoms onto `self`'s and filters more, so each of its rows is
    /// `self`'s projection of the same source rows — cell for cell, not
    /// just `==`. Sound, not complete: a containment that needs a
    /// homomorphism other than the identity is not found.
    pub fn covers(&self, later: &ConjunctiveQuery) -> bool {
        self.projections.len() == later.projections.len()
            && self
                .projections
                .iter()
                .zip(&later.projections)
                .all(|((_, a), (_, b))| a == b)
            && self.atoms.iter().all(|atom| later.atoms.contains(atom))
            && self.joins.iter().all(|(a, b)| {
                later
                    .joins
                    .iter()
                    .any(|(c, d)| (a == c && b == d) || (a == d && b == c))
            })
    }
}

/// For each branch of `queries`, the earliest *earlier* branch that
/// [covers](ConjunctiveQuery::covers) it. Coverage is transitive, so that
/// branch is itself uncovered: only uncovered branches are tried, and only
/// those with the same projection list.
pub(crate) fn covering_branches(queries: &[ConjunctiveQuery]) -> Vec<Option<usize>> {
    let mut containers: HashMap<&[(Iri, QualifiedColumn)], Vec<usize>> = HashMap::new();
    queries
        .iter()
        .enumerate()
        .map(|(index, cq)| {
            let bucket = containers.entry(cq.projections.as_slice()).or_default();
            let container = bucket.iter().copied().find(|&j| queries[j].covers(cq));
            if container.is_none() {
                bucket.push(index);
            }
            container
        })
        .collect()
}

/// Combines per-concept partial walks into the UCQ.
///
/// `alternatives` maps each walk concept to its phase-(b) alternatives;
/// `walk` supplies the requested (pre-expansion) features and the edges.
pub fn generate_ucq(
    ontology: &BdiOntology,
    walk: &Walk,
    alternatives: &BTreeMap<Iri, Vec<PartialWalk>>,
    max_branches: usize,
) -> Result<Vec<ConjunctiveQuery>, MdmError> {
    // Resolve each edge's witnesses up front (taxonomy-aware: a wrapper
    // covering the edge between subconcepts witnesses it, provided it maps
    // both walk-level identifiers so the join is expressible).
    let mut edge_witnesses: Vec<(usize, Vec<Iri>)> = Vec::new();
    for (index, (from, property, to)) in walk.relations().iter().enumerate() {
        let from_id = ontology
            .identifier_of(from)
            .ok_or_else(|| MdmError::Rewrite(format!("concept '{from}' has no identifier")))?;
        let to_id = ontology
            .identifier_of(to)
            .ok_or_else(|| MdmError::Rewrite(format!("concept '{to}' has no identifier")))?;
        let witnesses: Vec<Iri> =
            wrappers_covering_relation_taxonomic(ontology, from, property, to)
                .into_iter()
                .filter(|w| {
                    !ontology.attributes_mapping_to(w, &from_id).is_empty()
                        && !ontology.attributes_mapping_to(w, &to_id).is_empty()
                })
                .collect();
        if witnesses.is_empty() {
            return Err(MdmError::Rewrite(format!(
                "no wrapper covers the relation '{from}' -{property}-> '{to}' \
                 (and maps both endpoint identifiers); the walk cannot be answered"
            )));
        }
        edge_witnesses.push((index, witnesses));
    }

    // Deterministic concept order (walk order).
    let concepts: Vec<Iri> = walk.concepts().to_vec();
    for concept in &concepts {
        let alts = alternatives.get(concept).ok_or_else(|| {
            MdmError::Rewrite(format!(
                "internal: no partial walks supplied for '{concept}'"
            ))
        })?;
        if alts.is_empty() {
            return Err(MdmError::Rewrite(format!(
                "no wrapper covers concept '{concept}'"
            )));
        }
    }

    // Enumerate choice vectors.
    let branch_estimate: usize = concepts
        .iter()
        .map(|c| alternatives[c].len())
        .product::<usize>()
        .saturating_mul(
            edge_witnesses
                .iter()
                .map(|(_, w)| w.len())
                .product::<usize>(),
        );
    if branch_estimate > max_branches {
        return Err(MdmError::Rewrite(format!(
            "the rewriting would enumerate {branch_estimate} union branches \
             (limit {max_branches}); simplify the walk or the mappings, or \
             raise RewriteOptions::max_branches"
        )));
    }

    let mut queries = Vec::new();
    let mut concept_choice = vec![0usize; concepts.len()];
    loop {
        // For this concept choice, iterate edge witness choices.
        let mut edge_choice = vec![0usize; edge_witnesses.len()];
        loop {
            let cq = assemble(
                ontology,
                walk,
                &concepts,
                alternatives,
                &concept_choice,
                &edge_witnesses,
                &edge_choice,
            )?;
            queries.push(cq);
            if !increment(
                &mut edge_choice,
                &edge_witnesses
                    .iter()
                    .map(|(_, w)| w.len())
                    .collect::<Vec<_>>(),
            ) {
                break;
            }
        }
        if !increment(
            &mut concept_choice,
            &concepts
                .iter()
                .map(|c| alternatives[c].len())
                .collect::<Vec<_>>(),
        ) {
            break;
        }
    }

    // Dedup structurally identical branches (e.g. the edge witness already
    // participates in a partial walk).
    let mut seen = BTreeSet::new();
    queries.retain(|cq| seen.insert(cq.canonical_key()));
    queries.sort();
    Ok(queries)
}

/// Odometer-style increment; returns false on wrap-around.
fn increment(digits: &mut [usize], radixes: &[usize]) -> bool {
    for i in (0..digits.len()).rev() {
        digits[i] += 1;
        if digits[i] < radixes[i] {
            return true;
        }
        digits[i] = 0;
    }
    false
}

/// Builds one conjunctive query from concrete choices.
#[allow(clippy::too_many_arguments)]
fn assemble(
    ontology: &BdiOntology,
    walk: &Walk,
    concepts: &[Iri],
    alternatives: &BTreeMap<Iri, Vec<PartialWalk>>,
    concept_choice: &[usize],
    edge_witnesses: &[(usize, Vec<Iri>)],
    edge_choice: &[usize],
) -> Result<ConjunctiveQuery, MdmError> {
    let chosen: BTreeMap<&Iri, &PartialWalk> = concepts
        .iter()
        .zip(concept_choice)
        .map(|(c, &i)| (c, &alternatives[c][i]))
        .collect();

    let mut atoms: Vec<String> = Vec::new();
    let push_atom = |name: &str, atoms: &mut Vec<String>| {
        if !atoms.iter().any(|a| a == name) {
            atoms.push(name.to_string());
        }
    };
    let mut joins: Vec<(QualifiedColumn, QualifiedColumn)> = Vec::new();
    let push_join = |a: QualifiedColumn,
                     b: QualifiedColumn,
                     joins: &mut Vec<(QualifiedColumn, QualifiedColumn)>| {
        if a == b {
            return; // same column — trivially satisfied
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        if !joins.contains(&(x.clone(), y.clone())) {
            joins.push((x, y));
        }
    };

    // Intra-concept atoms and joins: wrappers of one partial walk join on
    // their identifier columns (anchored at the first wrapper).
    for concept in concepts {
        let pw = chosen[concept];
        let anchor = &pw.wrappers[0];
        push_atom(&anchor.wrapper_name, &mut atoms);
        for other in &pw.wrappers[1..] {
            push_atom(&other.wrapper_name, &mut atoms);
            push_join(
                (anchor.wrapper_name.clone(), anchor.id_column.clone()),
                (other.wrapper_name.clone(), other.id_column.clone()),
                &mut joins,
            );
        }
    }

    // Inter-concept: each edge's witness links the two anchors.
    for ((edge_index, witnesses), &choice) in edge_witnesses.iter().zip(edge_choice) {
        let (from, property, to) = &walk.relations()[*edge_index];
        let witness = &witnesses[choice];
        let witness_name = witness.local_name().to_string();
        let from_id = ontology
            .identifier_of(from)
            .ok_or_else(|| MdmError::Rewrite(format!("concept '{from}' has no identifier")))?;
        let to_id = ontology
            .identifier_of(to)
            .ok_or_else(|| MdmError::Rewrite(format!("concept '{to}' has no identifier")))?;
        let witness_from = ontology.attributes_mapping_to(witness, &from_id);
        let witness_to = ontology.attributes_mapping_to(witness, &to_id);
        let (Some(wf), Some(wt)) = (witness_from.first(), witness_to.first()) else {
            return Err(MdmError::Rewrite(format!(
                "wrapper '{witness_name}' covers '{from}' -{property}-> '{to}' \
                 but does not map both identifiers"
            )));
        };
        push_atom(&witness_name, &mut atoms);
        let from_anchor = &chosen[from].wrappers[0];
        let to_anchor = &chosen[to].wrappers[0];
        push_join(
            (
                witness_name.clone(),
                BdiOntology::attribute_name(wf).to_string(),
            ),
            (
                from_anchor.wrapper_name.clone(),
                from_anchor.id_column.clone(),
            ),
            &mut joins,
        );
        push_join(
            (
                witness_name.clone(),
                BdiOntology::attribute_name(wt).to_string(),
            ),
            (to_anchor.wrapper_name.clone(), to_anchor.id_column.clone()),
            &mut joins,
        );
    }

    // Projections: the *requested* features (walk order).
    let mut projections = Vec::new();
    for concept in concepts {
        let pw = chosen[concept];
        for feature in walk.features_of(concept) {
            let (wrapper, column) = pw.column_for(feature).ok_or_else(|| {
                MdmError::Rewrite(format!(
                    "internal: chosen partial walk for '{concept}' lacks '{feature}'"
                ))
            })?;
            projections.push((feature.clone(), (wrapper.to_string(), column.to_string())));
        }
    }

    Ok(ConjunctiveQuery {
        atoms,
        joins,
        projections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::expand;
    use crate::intra::partial_walks;
    use crate::testkit::{evolved_ontology, ex, figure7_ontology, figure8_walk};

    fn alternatives_for(ontology: &BdiOntology, walk: &Walk) -> BTreeMap<Iri, Vec<PartialWalk>> {
        let expanded = expand(walk, ontology).unwrap().walk;
        expanded
            .concepts()
            .iter()
            .map(|c| {
                (
                    c.clone(),
                    partial_walks(ontology, c, expanded.features_of(c)).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn figure8_produces_single_cq() {
        let o = figure7_ontology();
        let walk = figure8_walk();
        let ucq = generate_ucq(&o, &walk, &alternatives_for(&o, &walk), MAX_UCQ_BRANCHES).unwrap();
        assert_eq!(ucq.len(), 1);
        let cq = &ucq[0];
        assert_eq!(cq.atoms, vec!["w1", "w2"]);
        // The single join: w1.teamId = w2.id.
        assert_eq!(cq.joins.len(), 1);
        let (a, b) = &cq.joins[0];
        let mut sides = vec![a.clone(), b.clone()];
        sides.sort();
        assert_eq!(
            sides,
            vec![
                ("w1".to_string(), "teamId".to_string()),
                ("w2".to_string(), "id".to_string())
            ]
        );
        // Projections: playerName from w1.pName, teamName from w2.name.
        assert_eq!(cq.projections.len(), 2);
        assert_eq!(
            cq.projections[0],
            (ex("playerName"), ("w1".to_string(), "pName".to_string()))
        );
        assert_eq!(
            cq.projections[1],
            (ex("teamName"), ("w2".to_string(), "name".to_string()))
        );
    }

    #[test]
    fn evolution_doubles_the_union() {
        let o = evolved_ontology();
        let walk = figure8_walk();
        let ucq = generate_ucq(&o, &walk, &alternatives_for(&o, &walk), MAX_UCQ_BRANCHES).unwrap();
        // Player alternatives {w1, w3} × edge witnesses {w1, w3}, deduped:
        // the edge witness coincides with the player wrapper, and the cross
        // choices (w1 player + w3 edge, etc.) survive as distinct CQs.
        assert!(ucq.len() >= 2, "got {} CQs", ucq.len());
        let atom_sets: Vec<Vec<String>> = ucq.iter().map(|cq| cq.atoms.clone()).collect();
        assert!(atom_sets.iter().any(|a| a.contains(&"w1".to_string())));
        assert!(atom_sets.iter().any(|a| a.contains(&"w3".to_string())));
        // Every CQ projects the same two features in the same order.
        for cq in &ucq {
            assert_eq!(cq.projections.len(), 2);
            assert_eq!(cq.projections[0].0, ex("playerName"));
        }
    }

    #[test]
    fn uncovered_relation_is_an_error() {
        let mut o = figure7_ontology();
        // Add a relation no wrapper covers.
        let coach = ex("Coach");
        o.add_concept(&coach).unwrap();
        o.add_identifier(&coach, &ex("coachId")).unwrap();
        o.add_relation(&ex("Player"), &ex("coachedBy"), &coach)
            .unwrap();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&coach, &ex("coachId"))
            .relation(&ex("Player"), &ex("coachedBy"), &coach);
        // Build alternatives only for Player (Coach has none) — the edge
        // check fires first.
        let mut alternatives = BTreeMap::new();
        let expanded = expand(&walk, &o);
        // Expansion succeeds (coach has an id), but phase (b) would fail for
        // Coach; the edge error is the one generate_ucq reports.
        let expanded = expanded.unwrap().walk;
        alternatives.insert(
            ex("Player"),
            partial_walks(&o, &ex("Player"), expanded.features_of(&ex("Player"))).unwrap(),
        );
        alternatives.insert(coach.clone(), vec![]);
        let err = generate_ucq(&o, &walk, &alternatives, MAX_UCQ_BRANCHES).unwrap_err();
        assert!(err.message().contains("no wrapper covers the relation"));
    }

    #[test]
    fn dedup_collapses_identical_branches() {
        let o = figure7_ontology();
        let walk = figure8_walk();
        let ucq = generate_ucq(&o, &walk, &alternatives_for(&o, &walk), MAX_UCQ_BRANCHES).unwrap();
        let keys: BTreeSet<_> = ucq.iter().map(|cq| cq.canonical_key()).collect();
        assert_eq!(keys.len(), ucq.len());
    }

    /// A two-concept synthetic chain at two versions per source, and the
    /// `scan_join` walk over it: one feature of C0, concept C1 and the
    /// edge. Every `s0_v*` wrapper also maps C1's identifier.
    fn scan_join_system() -> (crate::Mdm, Walk, mdm_wrappers::workload::SyntheticEcosystem) {
        use crate::synthetic::{concept_iri, feature_iri, mdm_from_synthetic, relation_iri};
        let eco = mdm_wrappers::workload::build(&mdm_wrappers::workload::WorkloadConfig {
            concepts: 2,
            features_per_concept: 1,
            versions_per_source: 2,
            rows_per_wrapper: 20,
            seed: 42,
        });
        let mdm = mdm_from_synthetic(&eco).unwrap();
        let walk = Walk::new()
            .feature(&concept_iri(0), &feature_iri(0, "c0_f0"))
            .concept(&concept_iri(1))
            .relation(&concept_iri(0), &relation_iri(0), &concept_iri(1));
        (mdm, walk, eco)
    }

    /// A CQ over `atoms` with `wrapper.column` join pairs, emitting one
    /// `wrapper.column`.
    fn cq(atoms: &[&str], joins: &[(&str, &str)], emits: &str) -> ConjunctiveQuery {
        let column = |qualified: &str| {
            let (wrapper, column) = qualified.split_once('.').expect("wrapper.column");
            (wrapper.to_string(), column.to_string())
        };
        ConjunctiveQuery {
            atoms: atoms.iter().map(|a| a.to_string()).collect(),
            joins: joins.iter().map(|&(a, b)| (column(a), column(b))).collect(),
            projections: vec![(ex("f"), column(emits))],
        }
    }

    #[test]
    fn scan_join_branches_two_to_eight_and_ten_to_sixteen_are_covered() {
        let (mdm, walk, _) = scan_join_system();
        let rewriting = mdm.rewrite(&walk).unwrap();
        assert_eq!(rewriting.branch_count(), 16);
        // `explain` numbers branches from 1: branch 1 scans s0_v1 alone
        // and covers 2–8, branch 9 scans s0_v2 alone and covers 10–16.
        let explained = rewriting.explain();
        assert!(
            explained.contains("branch 1:\n    scans s0_v1\n"),
            "{explained}"
        );
        assert!(
            explained.contains("branch 9:\n    scans s0_v2\n"),
            "{explained}"
        );
        let expected: Vec<Option<usize>> = (0..16)
            .map(|i| match i {
                0 | 8 => None,
                1..=7 => Some(0),
                _ => Some(8),
            })
            .collect();
        assert_eq!(rewriting.covered_by, expected);
    }

    #[test]
    fn wide_result_and_evolved_figure8_have_no_covered_branch() {
        let (mdm, _, eco) = scan_join_system();
        let wide = mdm.rewrite(&crate::synthetic::chain_walk(&eco, 2)).unwrap();
        assert_eq!(wide.branch_count(), 8);
        assert_eq!(wide.covered_by, vec![None; 8]);

        let evolved = crate::rewrite::rewrite_walk(
            &evolved_ontology(),
            &figure8_walk(),
            &crate::rewrite::RewriteOptions::default(),
        )
        .unwrap();
        assert!(evolved.branch_count() >= 2);
        assert_eq!(evolved.covered_by, vec![None; evolved.branch_count()]);
    }

    #[test]
    fn a_later_container_is_never_used() {
        let small = cq(&["a"], &[], "a.x");
        let big = cq(&["a", "b"], &[("a.k", "b.k")], "a.x");
        assert!(small.covers(&big));
        assert!(!big.covers(&small));
        assert_eq!(
            covering_branches(&[small.clone(), big.clone()]),
            vec![None, Some(0)]
        );
        assert_eq!(covering_branches(&[big, small]), vec![None, None]);
    }

    #[test]
    fn an_extra_join_or_another_projection_column_blocks_coverage() {
        let later = cq(&["a", "b"], &[("b.k", "a.k")], "a.x");
        // Join pairs compare unordered: `a.k = b.k` is `b.k = a.k`.
        assert!(cq(&["a", "b"], &[("a.k", "b.k")], "a.x").covers(&later));
        let extra_join = cq(&["a", "b"], &[("a.j", "b.j")], "a.x");
        assert!(!extra_join.covers(&later));
        let other_column = cq(&["a"], &[], "a.y");
        assert!(!other_column.covers(&later));
        let other_wrapper = cq(&["b"], &[], "b.x");
        assert!(!other_wrapper.covers(&later));
        assert_eq!(
            covering_branches(&[extra_join, other_column, later]),
            vec![None; 3]
        );
    }

    #[test]
    fn bag_semantics_and_provenance_run_every_branch() {
        let (mut mdm, walk, _) = scan_join_system();
        // Provenance labels every derivation: all 16 branches produce one.
        let traced = mdm.query_with_provenance(&walk).unwrap();
        let labels: BTreeSet<String> = traced
            .table
            .column(&mdm_relational::schema::ColumnRef::bare("provenance"))
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        let branches: BTreeSet<String> = traced
            .rewriting
            .queries
            .iter()
            .map(|cq| cq.atoms.join("+"))
            .collect();
        assert_eq!(labels, branches);

        mdm.set_options(crate::rewrite::RewriteOptions {
            distinct: false,
            ..crate::rewrite::RewriteOptions::default()
        });
        let bag = mdm.rewrite(&walk).unwrap();
        assert_eq!(bag.covered_by, vec![None; 16]);
        // Every branch's rows count: 16 branches of 20 rows each.
        let answer = mdm
            .query_degraded(&walk, mdm_relational::Deadline::none())
            .unwrap();
        assert_eq!(answer.rows.len(), 16 * 20);
    }

    #[test]
    fn odometer_increment() {
        let mut digits = vec![0, 0];
        let radixes = vec![2, 3];
        let mut count = 1;
        while increment(&mut digits, &radixes) {
            count += 1;
        }
        assert_eq!(count, 6);
    }
}
