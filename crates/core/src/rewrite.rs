//! The rewriting pipeline: walk → expansion → intra → inter → relational
//! algebra (paper §2.4, Figure 8).

use std::collections::BTreeMap;

use mdm_rdf::term::Iri;
use mdm_relational::schema::ColumnRef;
use mdm_relational::Plan;

use crate::error::MdmError;
use crate::expansion::{expand, ExpandedWalk};
use crate::footprint::Footprint;
use crate::inter::{covering_branches, generate_ucq, ConjunctiveQuery, QualifiedColumn};
use crate::intra::{partial_walks, PartialWalk};
use crate::ontology::BdiOntology;
use crate::sparql_gen;
use crate::walk::Walk;

/// Options controlling plan generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteOptions {
    /// Wrap the union in a `Distinct` (set semantics). MDM's UI shows
    /// deduplicated tabular results; benches can turn it off.
    pub distinct: bool,
    /// Upper bound on enumerated union branches; the rewriting refuses
    /// wider UCQs with a typed error instead of exploding. Defaults to
    /// [`crate::inter::MAX_UCQ_BRANCHES`]; raise it for wide ecosystems
    /// (the SUPERSEDE-scale example does).
    pub max_branches: usize,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            distinct: true,
            max_branches: crate::inter::MAX_UCQ_BRANCHES,
        }
    }
}

/// The rewriting output: the UCQ and the SPARQL text of the walk (what the
/// MDM interface shows side by side). Each branch's plan over wrapper
/// relations is [`plan_for_cq`]'s; the union of the branches, and its δ,
/// are the answer's.
#[derive(Clone, Debug)]
pub struct Rewriting {
    /// The conjunctive queries, one per union branch.
    pub queries: Vec<ConjunctiveQuery>,
    /// Whether the answer is a set ([`RewriteOptions::distinct`]): δ over
    /// the union of the branches.
    pub distinct: bool,
    /// The SPARQL translation of the walk.
    pub sparql: String,
    /// Output column names, in walk order (compacted feature IRIs).
    pub output_columns: Vec<String>,
    /// Identifiers injected by phase (a), for explanations.
    pub expanded_identifiers: Vec<(Iri, Iri)>,
    /// Per branch, under δ, the earliest earlier branch that
    /// [covers](ConjunctiveQuery::covers) it: every row the branch yields
    /// is already a row of that one, so the served path need not run it.
    /// All `None` without δ, where those rows count.
    pub covered_by: Vec<Option<usize>>,
}

impl Rewriting {
    /// Number of union branches.
    pub fn branch_count(&self) -> usize {
        self.queries.len()
    }

    /// The UCQ rendered in algebra notation (Figure 8's right-hand side):
    /// each branch's plan, `(a ∪ b ∪ …)` over several, `δ(…)` under δ. A
    /// branch without a plan, a rewriting bug that
    /// [`crate::query::PreparedPlans::prepare`] reports, renders as its
    /// error.
    pub fn algebra(&self) -> String {
        let branches: Vec<String> = self
            .queries
            .iter()
            .map(|cq| match plan_for_cq(cq, &self.output_columns) {
                Ok(plan) => plan.to_string(),
                Err(error) => error.to_string(),
            })
            .collect();
        let union = match branches.as_slice() {
            [branch] => branch.clone(),
            _ => format!("({})", branches.join(" ∪ ")),
        };
        if self.distinct {
            format!("δ({union})")
        } else {
            union
        }
    }

    /// A human-readable derivation report: what phase (a) injected and what
    /// each union branch scans, joins and projects — the narration the demo
    /// gives while showing Figure 8.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(out, "REWRITING — {} union branch(es)", self.branch_count()).unwrap();
        if self.expanded_identifiers.is_empty() {
            writeln!(out, "phase (a) query expansion: nothing to add").unwrap();
        } else {
            writeln!(out, "phase (a) query expansion added:").unwrap();
            for (concept, id) in &self.expanded_identifiers {
                writeln!(
                    out,
                    "    {} ⇐ identifier {}",
                    concept.local_name(),
                    id.local_name()
                )
                .unwrap();
            }
        }
        for (index, cq) in self.queries.iter().enumerate() {
            writeln!(out, "branch {}:", index + 1).unwrap();
            writeln!(out, "    scans {}", cq.atoms.join(", ")).unwrap();
            for ((wa, ca), (wb, cb)) in &cq.joins {
                writeln!(out, "    joins {wa}.{ca} = {wb}.{cb}").unwrap();
            }
            for ((feature, (wrapper, column)), name) in
                cq.projections.iter().zip(&self.output_columns)
            {
                let _ = feature;
                writeln!(out, "    emits {wrapper}.{column} as {name}").unwrap();
            }
        }
        out
    }
}

/// The reusable intermediate state of one rewrite, cached alongside the
/// plan so evolution can *extend* it instead of recomputing everything.
///
/// Phase (a) and the per-concept phase (b) outputs are independent per
/// concept; when a new mapping lands for one concept, the cache re-runs
/// phase (b) for that concept only and re-assembles with [`assemble`] —
/// which, being deterministic, yields byte-identical output to a cold
/// rewrite at the same metadata epoch.
#[derive(Clone, Debug)]
pub struct RewriteArtifacts {
    /// Phase (a) output: the walk with identifiers injected.
    pub expanded: ExpandedWalk,
    /// Phase (b) output: partial walks per walk concept.
    pub alternatives: BTreeMap<Iri, Vec<PartialWalk>>,
    /// What the rewrite read: each walk concept's taxonomic closure plus
    /// every wrapper appearing in the UCQ (see [`Footprint`]).
    pub footprint: Footprint,
}

/// Runs the three phases.
pub fn rewrite_walk(
    ontology: &BdiOntology,
    walk: &Walk,
    options: &RewriteOptions,
) -> Result<Rewriting, MdmError> {
    rewrite_walk_with_artifacts(ontology, walk, options).map(|(rewriting, _)| rewriting)
}

/// Like [`rewrite_walk`], but also returning the reusable intermediate
/// artifacts and the read footprint — what the plan cache stores.
pub fn rewrite_walk_with_artifacts(
    ontology: &BdiOntology,
    walk: &Walk,
    options: &RewriteOptions,
) -> Result<(Rewriting, RewriteArtifacts), MdmError> {
    // Phase (a): query expansion.
    let expanded = expand(walk, ontology)?;

    // Phase (b): intra-concept generation.
    let mut alternatives = BTreeMap::new();
    for concept in expanded.walk.concepts() {
        let features = expanded.walk.features_of(concept);
        alternatives.insert(concept.clone(), partial_walks(ontology, concept, features)?);
    }

    assemble(ontology, walk, expanded, alternatives, options)
}

/// Phase (c) over precomputed phase (a)/(b) outputs. Deterministic in its
/// inputs: `generate_ucq` enumerates and sorts branches canonically — so
/// re-assembling with partially reused `alternatives` produces exactly the
/// rewriting a cold rewrite would.
pub fn assemble(
    ontology: &BdiOntology,
    walk: &Walk,
    expanded: ExpandedWalk,
    alternatives: BTreeMap<Iri, Vec<PartialWalk>>,
    options: &RewriteOptions,
) -> Result<(Rewriting, RewriteArtifacts), MdmError> {
    // Phase (c): inter-concept generation.
    let queries = generate_ucq(ontology, walk, &alternatives, options.max_branches)?;
    if queries.is_empty() {
        return Err(MdmError::Rewrite(
            "the rewriting produced no conjunctive query".to_string(),
        ));
    }

    let output_columns: Vec<String> = queries[0]
        .projections
        .iter()
        .map(|(feature, _)| ontology.compact(feature))
        .collect();
    let covered_by = if options.distinct {
        covering_branches(&queries)
    } else {
        vec![None; queries.len()]
    };
    let footprint = read_footprint(ontology, &expanded, &queries);
    let rewriting = Rewriting {
        sparql: sparql_gen::walk_to_sparql(ontology, walk),
        distinct: options.distinct,
        output_columns,
        expanded_identifiers: expanded.added_identifiers.clone(),
        queries,
        covered_by,
    };
    let artifacts = RewriteArtifacts {
        expanded,
        alternatives,
        footprint,
    };
    Ok((rewriting, artifacts))
}

/// The metadata this rewrite read: every walk concept with its full
/// taxonomic closure (coverage iterates subconcepts; identifier and
/// feature resolution consult superconcepts), plus every wrapper any
/// union branch scans. Conservative by construction — a mutation disjoint
/// from this set cannot change the rewrite's output.
fn read_footprint(
    ontology: &BdiOntology,
    expanded: &ExpandedWalk,
    queries: &[ConjunctiveQuery],
) -> Footprint {
    let mut footprint = Footprint::default();
    for concept in expanded.walk.concepts() {
        footprint.concepts.insert(concept.to_string());
        for related in ontology.subconcepts_of(concept) {
            footprint.concepts.insert(related.to_string());
        }
        for related in ontology.superconcepts_of(concept) {
            footprint.concepts.insert(related.to_string());
        }
    }
    for cq in queries {
        for atom in &cq.atoms {
            footprint.wrappers.insert(atom.clone());
        }
    }
    footprint
}

/// Builds the join tree + projection for one conjunctive query.
///
/// Atoms join left-deep in connectivity (BFS) order; join conditions attach
/// as equi-join keys when they link the new atom to the tree, or as σ
/// column equalities when they close over atoms already joined (a
/// condition between two columns of one atom always does).
pub fn plan_for_cq(cq: &ConjunctiveQuery, output_columns: &[String]) -> Result<Plan, MdmError> {
    if cq.atoms.is_empty() {
        return Err(MdmError::Rewrite(
            "conjunctive query with no atom".to_string(),
        ));
    }
    if output_columns.len() != cq.projections.len() {
        return Err(MdmError::Rewrite(format!(
            "internal: {} output names for {} projections",
            output_columns.len(),
            cq.projections.len()
        )));
    }

    // Order atoms by connectivity so every join has at least one key.
    let ordered = connectivity_order(&cq.atoms, &cq.joins);

    let mut included: Vec<&str> = vec![&ordered[0]];
    let mut plan = Plan::scan(ordered[0].clone());
    let mut remaining: Vec<&(QualifiedColumn, QualifiedColumn)> = cq.joins.iter().collect();

    for atom in &ordered[1..] {
        // Keys linking `atom` to the current tree.
        let mut keys: Vec<(ColumnRef, ColumnRef)> = Vec::new();
        remaining.retain(|((wa, ca), (wb, cb))| {
            let a_in = included.contains(&wa.as_str());
            let b_in = included.contains(&wb.as_str());
            if a_in && wb == atom {
                keys.push((ColumnRef::qualified(wa, ca), ColumnRef::qualified(wb, cb)));
                false
            } else if b_in && wa == atom {
                keys.push((ColumnRef::qualified(wb, cb), ColumnRef::qualified(wa, ca)));
                false
            } else {
                true
            }
        });
        plan = plan.join(Plan::scan(atom.clone()), keys);
        included.push(atom);
    }

    // Any leftover conditions close cycles: apply as filters.
    for ((wa, ca), (wb, cb)) in remaining {
        plan = plan.filter(ColumnRef::qualified(wa, ca), ColumnRef::qualified(wb, cb));
    }

    // Final projection with the compacted feature names.
    let columns: Vec<(ColumnRef, ColumnRef)> = cq
        .projections
        .iter()
        .zip(output_columns)
        .map(|((_, (wrapper, column)), name)| {
            (
                ColumnRef::qualified(wrapper, column),
                ColumnRef::bare(name.clone()),
            )
        })
        .collect();
    Ok(plan.project(columns))
}

/// BFS order over the join graph starting from the first atom; disconnected
/// atoms (cross products) append at the end.
fn connectivity_order(
    atoms: &[String],
    joins: &[(QualifiedColumn, QualifiedColumn)],
) -> Vec<String> {
    let mut ordered: Vec<String> = Vec::with_capacity(atoms.len());
    let mut frontier: Vec<&str> = vec![&atoms[0]];
    while let Some(current) = frontier.pop() {
        if ordered.iter().any(|a| a == current) {
            continue;
        }
        ordered.push(current.to_string());
        for ((wa, _), (wb, _)) in joins {
            if wa == current && !ordered.contains(wb) {
                frontier.push(wb);
            }
            if wb == current && !ordered.contains(wa) {
                frontier.push(wa);
            }
        }
    }
    for atom in atoms {
        if !ordered.contains(atom) {
            ordered.push(atom.clone());
        }
    }
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evolved_ontology, ex, figure7_ontology, figure8_walk};

    #[test]
    fn figure8_algebra_expression() {
        let o = figure7_ontology();
        let rewriting = rewrite_walk(&o, &figure8_walk(), &RewriteOptions::default()).unwrap();
        assert_eq!(rewriting.branch_count(), 1);
        assert_eq!(
            rewriting.algebra(),
            "δ(π[w1.pName→ex:playerName, w2.name→ex:teamName]\
             ((w1 ⋈[w1.teamId=w2.id] w2)))"
        );
        assert_eq!(
            rewriting.output_columns,
            vec!["ex:playerName", "ex:teamName"]
        );
        // Expansion injected both identifiers.
        assert_eq!(rewriting.expanded_identifiers.len(), 2);
    }

    #[test]
    fn without_distinct_no_delta() {
        let o = figure7_ontology();
        let rewriting = rewrite_walk(
            &o,
            &figure8_walk(),
            &RewriteOptions {
                distinct: false,
                ..RewriteOptions::default()
            },
        )
        .unwrap();
        assert!(!rewriting.algebra().starts_with("δ"));
    }

    #[test]
    fn evolution_produces_union() {
        let o = evolved_ontology();
        let rewriting = rewrite_walk(&o, &figure8_walk(), &RewriteOptions::default()).unwrap();
        assert!(rewriting.branch_count() >= 2);
        assert!(rewriting.algebra().contains('∪'));
    }

    /// The evolved Figure 8 walk's four branches — w1 and w3 each alone
    /// and joined through the other — byte for byte, one per plan, joined
    /// by `∪` in rewriting order, `δ` over the union under set semantics.
    #[test]
    fn evolved_figure8_algebra_is_pinned() {
        const BRANCHES: [&str; 4] = [
            "π[w1.pName→ex:playerName, w2.name→ex:teamName]((w1 ⋈[w1.teamId=w2.id] w2))",
            "π[w1.pName→ex:playerName, w2.name→ex:teamName]\
             (((w1 ⋈[w1.id=w3.id] w3) ⋈[w3.teamId=w2.id] w2))",
            "π[w3.pName→ex:playerName, w2.name→ex:teamName]((w3 ⋈[w3.teamId=w2.id] w2))",
            "π[w3.pName→ex:playerName, w2.name→ex:teamName]\
             (((w3 ⋈[w3.id=w1.id] w1) ⋈[w1.teamId=w2.id] w2))",
        ];
        let union = format!("({})", BRANCHES.join(" ∪ "));
        let o = evolved_ontology();
        for (distinct, expected) in [(true, format!("δ({union})")), (false, union)] {
            let options = RewriteOptions {
                distinct,
                ..RewriteOptions::default()
            };
            let rewriting = rewrite_walk(&o, &figure8_walk(), &options).unwrap();
            assert_eq!(rewriting.algebra(), expected);
        }
    }

    #[test]
    fn single_concept_walk() {
        let o = figure7_ontology();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&ex("Player"), &ex("height"));
        let rewriting = rewrite_walk(&o, &walk, &RewriteOptions::default()).unwrap();
        assert_eq!(rewriting.branch_count(), 1);
        assert_eq!(rewriting.queries[0].atoms, vec!["w1"]);
        assert!(rewriting.queries[0].joins.is_empty());
    }

    #[test]
    fn explain_narrates_the_derivation() {
        let o = figure7_ontology();
        let rewriting = rewrite_walk(&o, &figure8_walk(), &RewriteOptions::default()).unwrap();
        let explanation = rewriting.explain();
        assert!(explanation.contains("1 union branch"));
        assert!(explanation.contains("Player ⇐ identifier playerId"));
        assert!(explanation.contains("scans w1, w2") || explanation.contains("scans w2, w1"));
        assert!(explanation.contains("joins w1.teamId = w2.id"));
        assert!(explanation.contains("emits w1.pName as ex:playerName"));
    }

    #[test]
    fn sparql_is_generated() {
        let o = figure7_ontology();
        let rewriting = rewrite_walk(&o, &figure8_walk(), &RewriteOptions::default()).unwrap();
        assert!(rewriting.sparql.contains("SELECT"));
        assert!(rewriting.sparql.contains("ex:playerName"));
    }

    #[test]
    fn cyclic_join_conditions_all_consumed_as_keys() {
        // Synthetic CQ with a 3-cycle: a-b, b-c, c-a. Connectivity-ordered
        // insertion attaches every condition when its *later* endpoint joins
        // the tree, so the full cycle lands in equi-join keys. Only a
        // condition within one atom reaches the σ fallback
        // (`tests/cq_plans.rs`).
        let cq = ConjunctiveQuery {
            atoms: vec!["a".to_string(), "b".to_string(), "c".to_string()],
            joins: vec![
                (("a".into(), "x".into()), ("b".into(), "x".into())),
                (("b".into(), "y".into()), ("c".into(), "y".into())),
                (("c".into(), "z".into()), ("a".into(), "z".into())),
            ],
            projections: vec![(ex("f"), ("a".to_string(), "x".to_string()))],
        };
        let plan = plan_for_cq(&cq, &["f".to_string()]).unwrap();
        let rendered = plan.to_string();
        assert!(!rendered.contains("σ["), "no filter expected: {rendered}");
        assert_eq!(rendered.matches('⋈').count(), 2);
        assert_eq!(rendered.matches('=').count(), 3, "{rendered}");
    }

    #[test]
    fn disconnected_atoms_cross_join() {
        let cq = ConjunctiveQuery {
            atoms: vec!["a".to_string(), "b".to_string()],
            joins: vec![],
            projections: vec![(ex("f"), ("a".to_string(), "x".to_string()))],
        };
        let plan = plan_for_cq(&cq, &["f".to_string()]).unwrap();
        assert!(plan.to_string().contains("⋈[]"));
    }
}
