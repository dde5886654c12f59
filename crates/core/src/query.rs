//! End-to-end OMQ execution: rewriting + federated execution.
//!
//! "Concerning the execution of queries, the fragment of data provided by
//! wrappers is loaded into temporal SQLite tables in order to execute the
//! federated query" (§2.5) — here the rewritten plan runs directly on the
//! `mdm-relational` engine against any [`Catalog`] of wrapper relations.
//!
//! Two paths exist. [`answer_walk_with`] is the **reference**: a cold
//! rewrite whose branch plans run unoptimized, one after the other, their
//! rows concatenated, deduplicated by `Value` equality and sorted — what
//! goldens, the churn proptest and the benchmark oracle compare against.
//! [`execute_degraded`] is the **served** path and the only place in the
//! workspace that fans UCQ branches out on the worker pool.
//!
//! The served path runs [`PreparedPlans`]: each branch's plan, derived
//! from its conjunctive query and optimized once, with no δ of its own.
//! [`crate::Mdm`] keeps them in the plan-cache entry next to the rewriting
//! and prepares them again only when the optimizer's inputs moved (see
//! [`crate::cache`]), so a warm query neither plans nor optimizes.
//!
//! The served path ends where the paper's answer to evolution ends: union
//! the coexisting versions' branches, eliminate duplicates once, order the
//! rows. Branch results come back undecoded and are merged where they were
//! computed, over term ids ([`merge_branches`]); the merge is the only δ.
//! The answer stays in that form: a [`DegradedAnswer`] carries
//! [`MergedRows`], sorted term rows plus the answer's distinct strings,
//! which the server prints as they are.
//! Only a caller that wants `Value`s ([`DegradedAnswer::table`], the CLI,
//! the tests) builds a [`Table`]. One rule holds on both paths: rows are
//! the same when they are `==`, and of two `==` rows — v1 says `170`, v2
//! says `170.0` — the first branch in rewriting order wins.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use mdm_relational::columnar::{merge_branches, MergeMode, MergedRows};
use mdm_relational::resilience::ScanGuard;
use mdm_relational::schema::ColumnRef;
use mdm_relational::{Catalog, ExecOptions, Executor, Plan, ScanCache, Schema, Table, Value};

use crate::error::MdmError;
use crate::ontology::BdiOntology;
use crate::rewrite::{plan_for_cq, rewrite_walk, RewriteOptions, Rewriting};
use crate::walk::Walk;

/// The answer to an OMQ: the rewriting artifacts plus the result table.
#[derive(Clone, Debug)]
pub struct QueryAnswer {
    pub rewriting: Arc<Rewriting>,
    pub table: Table,
}

impl QueryAnswer {
    /// The tabular rendering the MDM UI displays (cf. Table 1).
    pub fn render(&self) -> String {
        self.table.render()
    }
}

/// The reference path: rewrites `walk` cold, runs each branch's
/// [`plan_for_cq`], unoptimized, on one executor over one scan cache (each
/// wrapper is fetched once), and concatenates the rows in rewriting order.
/// Under δ the first of rows that are `==` stays. The rows come back
/// sorted. None of this is the served merge's code ([`merge_branches`]).
/// [`crate::Mdm::query`] threads its pool, retry policy and metadata epoch
/// in through `exec_options`.
pub fn answer_walk_with(
    ontology: &BdiOntology,
    walk: &Walk,
    catalog: &dyn Catalog,
    options: &RewriteOptions,
    exec_options: &ExecOptions,
) -> Result<QueryAnswer, MdmError> {
    let rewriting = rewrite_walk(ontology, walk, options)?;
    let cache = ScanCache::new();
    let executor = Executor::with_options(catalog, exec_options.clone()).with_scan_cache(&cache);
    let mut schema = Schema::new(Vec::new());
    let mut rows = Vec::new();
    for cq in &rewriting.queries {
        let plan = plan_for_cq(cq, &rewriting.output_columns)?;
        let table = executor.run(&plan).map_err(MdmError::from_exec)?;
        schema = table.schema().clone();
        rows.extend(table.into_rows());
    }
    if rewriting.distinct {
        let mut seen = HashSet::new();
        rows.retain(|row| seen.insert(row.clone()));
    }
    let table = Table::new(schema, rows)
        .map_err(MdmError::Execution)?
        .sorted();
    Ok(QueryAnswer {
        rewriting: Arc::new(rewriting),
        table,
    })
}

/// One CQ branch that could not contribute to a degraded answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DroppedBranch {
    /// The wrapper relations the branch scans (enriched with versions when
    /// the executing [`crate::Mdm`] knows them, e.g. `w3@v2`).
    pub wrappers: Vec<String>,
    /// The failure class (`transient`, `permanent`, `malformed`, `timeout`).
    pub kind: String,
    /// The error message that killed the branch.
    pub reason: String,
}

/// How much of the UCQ a degraded answer actually covers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Completeness {
    /// CQ branches in the rewriting.
    pub total_branches: usize,
    /// Branches that executed and contributed rows.
    pub executed_branches: usize,
    /// Wrappers that contributed (union over surviving branches, sorted).
    pub contributors: Vec<String>,
    /// Branches dropped with the reason each one failed.
    pub dropped: Vec<DroppedBranch>,
    /// Transient scan failures absorbed by retries along the way.
    pub retries: u64,
}

impl Completeness {
    /// True when every branch of the rewriting executed.
    pub fn is_complete(&self) -> bool {
        self.dropped.is_empty()
    }

    /// A one-line human summary (the CLI footer).
    pub fn summary(&self) -> String {
        if self.is_complete() {
            format!(
                "complete: {}/{} branches, {} retries absorbed",
                self.executed_branches, self.total_branches, self.retries
            )
        } else {
            let dropped: Vec<String> = self
                .dropped
                .iter()
                .map(|d| format!("{} ({})", d.wrappers.join("+"), d.kind))
                .collect();
            format!(
                "PARTIAL: {}/{} branches; dropped {}",
                self.executed_branches,
                self.total_branches,
                dropped.join(", ")
            )
        }
    }
}

/// The answer to an OMQ executed in degraded mode: the surviving rows, in
/// the term form the merge produced, plus the completeness report saying
/// what is missing and why.
#[derive(Clone, Debug)]
pub struct DegradedAnswer {
    pub rewriting: Arc<Rewriting>,
    pub rows: MergedRows,
    pub completeness: Completeness,
}

impl DegradedAnswer {
    /// The rows decoded into a [`Table`].
    pub fn table(&self) -> Table {
        self.rows.to_table()
    }

    /// The tabular rendering (cf. Table 1).
    pub fn render(&self) -> String {
        self.table().render()
    }
}

/// One UCQ branch ready to run.
#[derive(Clone, Debug)]
pub struct PreparedBranch {
    /// The branch's plan: [`plan_for_cq`], optimized. It has no δ: the
    /// merge is the answer's only one.
    pub plan: Plan,
    /// The relations `plan` scans, in scan order: what a covered branch
    /// prefetches.
    pub scans: Vec<String>,
}

/// The branch plans [`execute_degraded`] runs for one rewriting, one per
/// branch in rewriting order. They never deduplicate: under
/// [`Rewriting::distinct`] the merge is the answer's δ.
#[derive(Clone, Debug)]
pub struct PreparedPlans {
    pub branches: Vec<PreparedBranch>,
}

impl PreparedPlans {
    /// Derives each branch's plan and hands it to `optimize`. Branches are
    /// optimized one by one because each one executes — and can fail — on
    /// its own. A plan-shape failure is a rewriting bug, not a source
    /// fault, so it fails here, before any branch executes.
    pub fn prepare(
        rewriting: &Rewriting,
        optimize: &dyn Fn(Plan) -> Plan,
    ) -> Result<PreparedPlans, MdmError> {
        let branches = rewriting
            .queries
            .iter()
            .map(|cq| {
                let plan = optimize(plan_for_cq(cq, &rewriting.output_columns)?);
                let scans = plan
                    .scanned_relations()
                    .into_iter()
                    .map(str::to_string)
                    .collect();
                Ok(PreparedBranch { plan, scans })
            })
            .collect::<Result<_, MdmError>>()?;
        Ok(PreparedPlans { branches })
    }
}

/// Executes a rewriting branch by branch: a CQ branch that fails terminally
/// is *dropped* — recorded in the completeness report — while the surviving
/// branches still produce rows. Only when **no** branch survives does the
/// query fail (with a timeout error if any branch timed out).
///
/// This is the degraded-mode contract: under partial source failure an
/// analyst gets the answerable fraction of the UCQ plus an honest account
/// of what is missing, instead of an all-or-nothing error.
/// `plans` holds one prepared plan per branch of `rewriting`
/// ([`PreparedPlans::prepare`]); this function neither plans nor
/// optimizes, so the same `plans` serve every query over `rewriting`
/// while the optimizer's inputs stand still.
///
/// The branches run without δ; the merge ([`merge_branches`]) is the one
/// δ of the answer, as the reference's is one δ over every branch's rows
/// (`δ(∪ Bᵢ)`). Deduplicating a
/// branch first would change which rows the merge sees: `==` is not
/// transitive between ints and floats beyond 2^53, so a branch δ can drop
/// a row the reference keeps.
///
/// With `provenance`, every surviving branch table is tagged with its
/// wrapper set (`cq.atoms` joined by `+`) in a trailing `provenance`
/// column before the merge — the governance view that makes "these rows
/// come from the old version, those from the new one" visible. Provenance
/// is per derivation, so a row produced by several branches appears once
/// per branch; under δ the merge deduplicates within each branch.
///
/// Under δ without provenance, a branch the rewriting records as covered
/// ([`Rewriting::covered_by`]) runs no plan while its container survives:
/// it only fetches its wrappers through the shared scan cache, and counts
/// as executed. Its container is earlier in rewriting order and yields
/// each of its rows cell for cell, so δ's "first branch wins" never picks
/// one of them and the merged rows are the same as when it runs. (The one
/// exception, a NaN cell, which is never `==` to itself, no wrapper
/// produces.)
pub fn execute_degraded(
    rewriting: &Rewriting,
    catalog: &dyn Catalog,
    plans: &PreparedPlans,
    exec_options: &ExecOptions,
    guard: Option<&dyn ScanGuard>,
    provenance: bool,
) -> Result<(MergedRows, Completeness), MdmError> {
    if plans.branches.len() != rewriting.queries.len() {
        return Err(MdmError::Execution(format!(
            "internal: {} prepared plans for {} branches",
            plans.branches.len(),
            rewriting.queries.len()
        )));
    }
    let mut completeness = Completeness {
        total_branches: rewriting.queries.len(),
        ..Completeness::default()
    };
    // One scan cache for the whole UCQ: a wrapper referenced by several
    // branches is fetched once, so retries and breaker events fire once
    // per wrapper per query — which also keeps fault-injection outcomes
    // (and thus the completeness report) independent of how concurrent
    // branches interleave.
    let cache = ScanCache::new();
    // A covered branch fetches what its plan scans, in the plan's order,
    // stopping where the plan's build would stop, so fetches, fault draws,
    // breaker events and retries stay those of running it. When a fetch
    // fails it runs, to report its own error. Provenance labels every
    // derivation, so there every branch runs.
    let container = |i: usize| rewriting.covered_by[i].filter(|_| !provenance);
    // `None` is a covered branch that fetched everything and ran nothing.
    let run_branch = |i: usize, may_skip: bool| {
        let mut executor =
            Executor::with_options(catalog, exec_options.clone()).with_scan_cache(&cache);
        if let Some(guard) = guard {
            executor = executor.with_guard(guard);
        }
        let skipped = may_skip
            && container(i).is_some()
            && plans.branches[i]
                .scans
                .iter()
                .all(|relation| executor.prefetch(relation).is_ok());
        let outcome = (!skipped).then(|| executor.run_undecoded(&plans.branches[i].plan));
        (executor.retries(), outcome)
    };
    let pool = exec_options.pool.as_ref().filter(|p| p.size() > 1);
    let fan_out = |branches: &[usize], may_skip: bool| match pool {
        Some(pool) if branches.len() > 1 => {
            pool.run(branches.len(), |k| run_branch(branches[k], may_skip))
        }
        _ => branches.iter().map(|&i| run_branch(i, may_skip)).collect(),
    };
    let mut outcomes = fan_out(&(0..plans.branches.len()).collect::<Vec<_>>(), true);
    // A skipped branch whose container was dropped runs now: its rows may
    // be the only ones left of the container's.
    let orphans: Vec<usize> = (0..plans.branches.len())
        .filter(|&i| {
            outcomes[i].1.is_none()
                && container(i).is_some_and(|c| matches!(outcomes[c].1, Some(Err(_))))
        })
        .collect();
    for (&i, (retries, outcome)) in orphans.iter().zip(fan_out(&orphans, false)) {
        outcomes[i].0 += retries;
        outcomes[i].1 = outcome;
    }
    let mut contributors: BTreeSet<String> = BTreeSet::new();
    let mut survivors = Vec::new();
    let mut labels = Vec::new();
    for (cq, (retries, outcome)) in rewriting.queries.iter().zip(outcomes) {
        completeness.retries += retries;
        let result = match outcome {
            Some(Err(error)) => {
                completeness.dropped.push(DroppedBranch {
                    wrappers: cq.atoms.clone(),
                    kind: error.kind.label().to_string(),
                    reason: error.message,
                });
                continue;
            }
            Some(Ok(result)) => Some(result),
            // Skipped: its container's rows stand for its own.
            None => None,
        };
        completeness.executed_branches += 1;
        contributors.extend(cq.atoms.iter().cloned());
        survivors.extend(result);
        if provenance {
            labels.push(Value::str(cq.atoms.join("+")));
        }
    }
    completeness.contributors = contributors.into_iter().collect();
    let Some(first) = survivors.first() else {
        // Every branch failed: no rows to stand behind, fail the query.
        let reasons: Vec<String> = completeness
            .dropped
            .iter()
            .map(|d| format!("{}: {}", d.wrappers.join("+"), d.reason))
            .collect();
        let message = format!(
            "all {} branch(es) failed — {}",
            completeness.total_branches,
            reasons.join("; ")
        );
        return Err(
            if completeness.dropped.iter().any(|d| d.kind == "timeout") {
                MdmError::Timeout(message)
            } else {
                MdmError::Execution(message)
            },
        );
    };
    let mut schema = first.schema.clone();
    let mode = if provenance {
        schema = schema.concat(&Schema::new(vec![ColumnRef::bare("provenance")]));
        MergeMode::Labelled {
            labels: &labels,
            distinct: rewriting.distinct,
        }
    } else if rewriting.distinct {
        MergeMode::Distinct
    } else {
        MergeMode::All
    };
    let batches = survivors.into_iter().map(|result| result.batches).collect();
    let rows = merge_branches(schema, batches, mode).map_err(MdmError::Execution)?;
    Ok((rows, completeness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evolved_ontology, ex, figure7_ontology, figure8_walk};
    use mdm_relational::MemoryCatalog;

    fn answer_walk(
        ontology: &BdiOntology,
        walk: &Walk,
        catalog: &dyn Catalog,
    ) -> Result<QueryAnswer, MdmError> {
        answer_walk_with(
            ontology,
            walk,
            catalog,
            &RewriteOptions::default(),
            &ExecOptions::default(),
        )
    }

    /// `rewriting`'s branch plans as the rewriting derives them.
    fn unoptimized(rewriting: &Rewriting) -> PreparedPlans {
        PreparedPlans::prepare(rewriting, &|plan| plan).unwrap()
    }

    /// A prepared set that does not match its rewriting is refused, not
    /// indexed out of bounds.
    #[test]
    fn plans_for_another_rewriting_are_refused() {
        let options = RewriteOptions::default();
        let rewriting = rewrite_walk(&evolved_ontology(), &figure8_walk(), &options).unwrap();
        let mut plans = unoptimized(&rewriting);
        plans.branches.pop();
        let error = execute_degraded(
            &rewriting,
            &catalog(),
            &plans,
            &ExecOptions::default(),
            None,
            false,
        )
        .unwrap_err();
        assert!(error.message().contains("prepared plans"), "{error:?}");
    }

    /// Wrapper extensions with the paper's Table 1 rows.
    fn catalog() -> MemoryCatalog {
        let mut catalog = MemoryCatalog::new();
        catalog.register(
            "w1",
            Table::new(
                Schema::qualified(
                    "w1",
                    ["id", "pName", "height", "weight", "score", "foot", "teamId"],
                ),
                vec![
                    vec![
                        Value::Int(6176),
                        Value::str("Lionel Messi"),
                        Value::Float(170.18),
                        Value::Int(159),
                        Value::Int(94),
                        Value::str("left"),
                        Value::Int(25),
                    ],
                    vec![
                        Value::Int(6177),
                        Value::str("Robert Lewandowski"),
                        Value::Float(184.0),
                        Value::Int(176),
                        Value::Int(92),
                        Value::str("right"),
                        Value::Int(27),
                    ],
                ],
            )
            .unwrap(),
        );
        catalog.register(
            "w2",
            Table::new(
                Schema::qualified("w2", ["id", "name", "shortName"]),
                vec![
                    vec![
                        Value::Int(25),
                        Value::str("FC Barcelona"),
                        Value::str("FCB"),
                    ],
                    vec![
                        Value::Int(27),
                        Value::str("Bayern Munich"),
                        Value::str("FCB2"),
                    ],
                    vec![
                        Value::Int(29),
                        Value::str("Manchester United"),
                        Value::str("MU"),
                    ],
                ],
            )
            .unwrap(),
        );
        // The v2 wrapper serving the *newer* players only.
        catalog.register(
            "w3",
            Table::new(
                Schema::qualified(
                    "w3",
                    [
                        "id",
                        "pName",
                        "height",
                        "weight",
                        "foot",
                        "teamId",
                        "nationality",
                    ],
                ),
                vec![vec![
                    Value::Int(6178),
                    Value::str("Zlatan Ibrahimovic"),
                    Value::Float(195.0),
                    Value::Int(209),
                    Value::str("right"),
                    Value::Int(29),
                    Value::Int(6),
                ]],
            )
            .unwrap(),
        );
        catalog
    }

    #[test]
    fn figure8_query_yields_table1_rows() {
        let o = figure7_ontology();
        let answer = answer_walk(&o, &figure8_walk(), &catalog()).unwrap();
        assert_eq!(answer.table.len(), 2);
        let rendered = answer.render();
        assert!(rendered.contains("Lionel Messi"));
        assert!(rendered.contains("FC Barcelona"));
    }

    #[test]
    fn evolved_ontology_unions_versions() {
        // With w3 mapped, the same walk now returns all three famous rows —
        // the §3 governance scenario's punchline.
        let o = evolved_ontology();
        let answer = answer_walk(&o, &figure8_walk(), &catalog()).unwrap();
        assert_eq!(answer.table.len(), 3);
        let rendered = answer.render();
        assert!(rendered.contains("Zlatan Ibrahimovic"));
        assert!(rendered.contains("Manchester United"));
        assert!(answer.rewriting.branch_count() >= 2);
    }

    #[test]
    fn missing_wrapper_in_catalog_is_execution_error() {
        let o = evolved_ontology();
        let mut partial = MemoryCatalog::new();
        // Only w1/w2 registered; the union needs w3.
        let full = catalog();
        for name in ["w1", "w2"] {
            let table = Executor::new(&full)
                .run(&mdm_relational::Plan::scan(name))
                .unwrap();
            partial.register(name, table);
        }
        let err = answer_walk(&o, &figure8_walk(), &partial).unwrap_err();
        assert_eq!(err.category(), "execution");
        assert!(err.message().contains("w3"));
    }

    #[test]
    fn provenance_labels_branches() {
        let o = evolved_ontology();
        let options = RewriteOptions::default();
        let rewriting = rewrite_walk(&o, &figure8_walk(), &options).unwrap();
        let (rows, completeness) = execute_degraded(
            &rewriting,
            &catalog(),
            &unoptimized(&rewriting),
            &ExecOptions::default(),
            None,
            true,
        )
        .unwrap();
        assert!(completeness.is_complete());
        let table = rows.to_table();
        let labels: BTreeSet<String> = table
            .column(&ColumnRef::bare("provenance"))
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        // Messi comes from the w1 branch, Zlatan from the w3 branch.
        assert!(labels.iter().any(|l| l.contains("w1")), "{labels:?}");
        assert!(labels.iter().any(|l| l.contains("w3")), "{labels:?}");
        let rows: Vec<String> = table
            .rows()
            .iter()
            .map(|r| format!("{} | {}", r[0], r[2]))
            .collect();
        assert!(
            rows.iter()
                .any(|r| r.contains("Zlatan Ibrahimovic") && r.contains("w3")),
            "{rows:?}"
        );
    }

    /// The paper's own scenario: v1 (w1) and v2 (w3) serve the same player
    /// and spell one number differently. The served merge and the cold
    /// reference must agree on which spelling survives — the first branch's
    /// in rewriting order. (The `BTreeSet` union this replaced kept the
    /// *last* `==` row, so the two paths disagreed.)
    #[test]
    fn served_and_reference_agree_when_versions_spell_a_number_differently() {
        let o = evolved_ontology();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&ex("Player"), &ex("height"));
        let options = RewriteOptions::default();
        let rewriting = rewrite_walk(&o, &walk, &options).unwrap();
        let cells = [
            (Value::Int(170), Value::Float(170.0)),
            (Value::Float(170.0), Value::Int(170)),
            (Value::Float(-0.0), Value::Float(0.0)),
            (Value::Float(0.0), Value::Float(-0.0)),
        ];
        for (v1, v2) in cells {
            let full = catalog();
            let mut catalog = MemoryCatalog::new();
            for (name, height, width) in [("w1", &v1, 7), ("w3", &v2, 7)] {
                let schema = full.relation_schema(name).unwrap();
                let mut row = vec![Value::Null; width];
                row[0] = Value::Int(6176);
                row[1] = Value::str("Lionel Messi");
                row[2] = height.clone();
                catalog.register(name, Table::new(schema, vec![row]).unwrap());
            }
            let exec_options = ExecOptions::default();
            let reference = answer_walk_with(&o, &walk, &catalog, &options, &exec_options)
                .unwrap()
                .render();
            let (served, _) = execute_degraded(
                &rewriting,
                &catalog,
                &unoptimized(&rewriting),
                &exec_options,
                None,
                false,
            )
            .unwrap();
            assert_eq!(served.len(), 1, "{v1:?}/{v2:?}");
            assert_eq!(served.to_table().render(), reference, "{v1:?}/{v2:?}");
        }
    }

    /// A source whose `height` went from int (v1) to float (v2) with values
    /// beyond 2^53, where `as f64` ties `Int(2^53)` and `Int(2^53 + 1)` to
    /// one float. One player name and a distinct weight per row keep every
    /// row through δ; under the tie the weights would close cycles in the
    /// row order. Served equals reference, and neither sort panics.
    #[test]
    fn served_and_reference_agree_on_ints_and_floats_beyond_two_to_the_53() {
        let o = evolved_ontology();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&ex("Player"), &ex("height"))
            .feature(&ex("Player"), &ex("weight"));
        let options = RewriteOptions::default();
        let rewriting = rewrite_walk(&o, &walk, &options).unwrap();
        let two_53 = 1i64 << 53;
        let full = catalog();
        let mut catalog = MemoryCatalog::new();
        for (name, version) in [("w1", 0i64), ("w3", 1)] {
            let rows = (0..40i64)
                .map(|i| {
                    let mut row = vec![Value::Null; 7];
                    row[0] = Value::Int(version * 100 + i);
                    row[1] = Value::str("Lionel Messi");
                    // `Int(2^53)` rows outweigh the floats, which
                    // outweigh the `Int(2^53 + 1)` rows.
                    let (height, weight) = if version == 0 {
                        (Value::Int(two_53 + i % 2), 200 * (1 - i % 2) + i)
                    } else {
                        (Value::Float(two_53 as f64), 100 + i)
                    };
                    row[2] = height;
                    row[3] = Value::Int(weight);
                    row
                })
                .collect();
            let schema = full.relation_schema(name).unwrap();
            catalog.register(name, Table::new(schema, rows).unwrap());
        }
        let exec_options = ExecOptions::default();
        let reference = answer_walk_with(&o, &walk, &catalog, &options, &exec_options).unwrap();
        let (served, _) = execute_degraded(
            &rewriting,
            &catalog,
            &unoptimized(&rewriting),
            &exec_options,
            None,
            false,
        )
        .unwrap();
        assert_eq!(served.len(), 80);
        // `Debug`, not `==`: the spelling (Int or Float) must agree too.
        assert_eq!(
            format!("{:?}", served.to_table().rows()),
            format!("{:?}", reference.table.rows())
        );
    }

    /// `==` is not transitive beyond 2^53: `Int(2^53) == Float(2^53) ==
    /// Int(2^53 + 1)`, but the two ints differ. The reference runs one δ
    /// over the union, which keeps both ints. A δ per branch before the
    /// merge would drop `Int(2^53 + 1)` against w3's own float, and the
    /// merge would then drop the float against w1's int: one row.
    #[test]
    fn served_and_reference_agree_when_equality_is_not_transitive() {
        let o = evolved_ontology();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&ex("Player"), &ex("height"));
        let options = RewriteOptions::default();
        let rewriting = rewrite_walk(&o, &walk, &options).unwrap();
        let two_53 = 1i64 << 53;
        let full = catalog();
        let mut catalog = MemoryCatalog::new();
        for (name, heights) in [
            ("w1", vec![Value::Int(two_53)]),
            (
                "w3",
                vec![Value::Float(two_53 as f64), Value::Int(two_53 + 1)],
            ),
        ] {
            let rows = heights
                .into_iter()
                .map(|height| {
                    let mut row = vec![Value::Null; 7];
                    row[1] = Value::str("Lionel Messi");
                    row[2] = height;
                    row
                })
                .collect();
            let schema = full.relation_schema(name).unwrap();
            catalog.register(name, Table::new(schema, rows).unwrap());
        }
        let exec_options = ExecOptions::default();
        let reference = answer_walk_with(&o, &walk, &catalog, &options, &exec_options).unwrap();
        assert_eq!(reference.table.len(), 2);
        let (served, _) = execute_degraded(
            &rewriting,
            &catalog,
            &unoptimized(&rewriting),
            &exec_options,
            None,
            false,
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", served.to_table().rows()),
            format!("{:?}", reference.table.rows())
        );
    }

    /// The merge is the answer's only δ: no prepared branch plan has one.
    #[test]
    fn prepared_branch_plans_have_no_distinct() {
        fn has_distinct(plan: &Plan) -> bool {
            match plan {
                Plan::Distinct { .. } => true,
                Plan::Scan { .. } => false,
                Plan::Filter { input, .. } | Plan::Project { input, .. } => has_distinct(input),
                Plan::Join { left, right, .. } => has_distinct(left) || has_distinct(right),
            }
        }
        let options = RewriteOptions::default();
        assert!(options.distinct);
        let rewriting = rewrite_walk(&evolved_ontology(), &figure8_walk(), &options).unwrap();
        let catalog = catalog();
        let stats = mdm_relational::StatsCatalog::new();
        let resolve = |name: &str| catalog.relation_schema(name);
        let optimizer = mdm_relational::Optimizer::new(&stats, &resolve);
        let optimized = PreparedPlans::prepare(&rewriting, &|plan| optimizer.optimize(plan));
        assert!(rewriting.distinct);
        for plans in [unoptimized(&rewriting), optimized.unwrap()] {
            assert_eq!(plans.branches.len(), rewriting.branch_count());
            for branch in &plans.branches {
                assert!(!has_distinct(&branch.plan), "{}", branch.plan);
            }
        }
    }

    #[test]
    fn single_concept_projection_query() {
        let o = figure7_ontology();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&ex("Player"), &ex("foot"));
        let answer = answer_walk(&o, &walk, &catalog()).unwrap();
        assert_eq!(answer.table.len(), 2);
        assert_eq!(
            answer.table.schema().join_names(", "),
            "ex:playerName, ex:foot"
        );
    }
}
