//! Covered UCQ branches. Under δ a branch that an earlier branch covers
//! (`ConjunctiveQuery::covers`) runs no plan on the served path; it only
//! fetches its wrappers. These tests hold that path to two references:
//!
//! * the same served query with every branch running, i.e.
//!   `execute_degraded` over the rewriting with `covered_by` cleared —
//!   rows by `Debug` and the whole `Completeness`, retries included;
//! * the cold reference `Mdm::query`.
//!
//! Inputs are random synthetic chains under random kills and transient
//! faults, sequential and pooled.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mdm_core::query::{answer_walk_with, execute_degraded, PreparedPlans};
use mdm_core::synthetic::{chain_walk, concept_iri, feature_iri, mdm_from_synthetic, relation_iri};
use mdm_core::{Completeness, DegradedAnswer, Mdm, MdmError, RewriteOptions, Rewriting, Walk};
use mdm_relational::schema::ColumnRef;
use mdm_relational::{
    BreakerConfig, BreakerRegistry, Catalog, Deadline, ExecOptions, MemoryCatalog, MergedRows,
    Optimizer, Plan, Pool, RetryPolicy, Schema, StatsCatalog, Table, Value,
};
use mdm_wrappers::workload::{build, SyntheticEcosystem, WorkloadConfig};
use mdm_wrappers::FaultPlan;

const THREADS: [usize; 2] = [1, 2];

/// A chain of `concepts` concepts, `versions` wrapper versions per source
/// and 8 rows per wrapper. Every wrapper but the last concept's maps the
/// next concept's identifier through `c{c}_next`.
fn ecosystem(concepts: usize, versions: usize, seed: u64) -> SyntheticEcosystem {
    build(&WorkloadConfig {
        concepts,
        features_per_concept: 1,
        versions_per_source: versions,
        rows_per_wrapper: 8,
        seed,
    })
}

/// The benchmark's `scan_join` walk: one feature of C0, concept C1 and
/// the edge between them.
fn scan_join_walk() -> Walk {
    Walk::new()
        .feature(&concept_iri(0), &feature_iri(0, "c0_f0"))
        .concept(&concept_iri(1))
        .relation(&concept_iri(0), &relation_iri(0), &concept_iri(1))
}

fn instant_retries(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        jitter_seed: 0x7e57,
    }
}

/// A system over `eco` with a statistics catalog of its own, so the
/// optimizer sees the same numbers on every run of a case.
fn system(eco: &SyntheticEcosystem, threads: usize, max_attempts: u32) -> (Mdm, Arc<StatsCatalog>) {
    let mut mdm = mdm_from_synthetic(eco).expect("synthetic system builds");
    let stats = Arc::new(StatsCatalog::new());
    mdm.set_stats_catalog(Arc::clone(&stats));
    mdm.set_threads(threads);
    mdm.set_retry_policy(instant_retries(max_attempts));
    (mdm, stats)
}

/// `walk`'s cached rewriting with no branch recorded as covered.
fn every_branch(mdm: &Mdm, walk: &Walk) -> Rewriting {
    let mut rewriting = (*mdm.rewrite_cached(walk).expect("walk rewrites")).clone();
    rewriting.covered_by = vec![None; rewriting.branch_count()];
    rewriting
}

/// What `Mdm::query_degraded` computes with every branch running: the same
/// catalog, retry policy, epoch, statistics and optimizer, a
/// fresh breaker registry, and the `wrapper@version` labels it adds.
fn run_every_branch(
    mdm: &Mdm,
    stats: &Arc<StatsCatalog>,
    walk: &Walk,
    max_attempts: u32,
) -> Result<(MergedRows, Completeness), MdmError> {
    let rewriting = every_branch(mdm, walk);
    let threads = mdm.threads();
    let exec_options = ExecOptions {
        retry: instant_retries(max_attempts),
        pool: (threads > 1).then(|| Arc::new(Pool::new(threads))),
        epoch: mdm.epoch(),
        stats: Some(Arc::clone(stats)),
        ..ExecOptions::default()
    };
    let resolve = |name: &str| mdm.catalog().relation_schema(name);
    let optimizer = Optimizer::new(stats.as_ref(), &resolve);
    let breakers = BreakerRegistry::new(BreakerConfig::default());
    let plans = PreparedPlans::prepare(&rewriting, &|plan| {
        optimizer.optimize_with(mdm.optimize_mode(), plan)
    })?;
    let (rows, mut completeness) = execute_degraded(
        &rewriting,
        mdm.catalog(),
        &plans,
        &exec_options,
        Some(&breakers),
        false,
    )?;
    let label = |name: &String| {
        let version = mdm.catalog().get(name).expect("registered").version();
        format!("{name}@v{version}")
    };
    completeness.contributors = completeness.contributors.iter().map(label).collect();
    for dropped in &mut completeness.dropped {
        dropped.wrappers = dropped.wrappers.iter().map(label).collect();
    }
    Ok((rows, completeness))
}

fn rows_of(rows: &MergedRows) -> String {
    format!("{:?}", rows.to_table().rows())
}

/// The served answer equals the every-branch one: both fail alike, or
/// both return the same rows (spelling included) and completeness.
fn assert_same(
    served: &Result<DegradedAnswer, MdmError>,
    every: &Result<(MergedRows, Completeness), MdmError>,
    context: &str,
) -> Result<(), TestCaseError> {
    match (served, every) {
        (Ok(served), Ok((rows, completeness))) => {
            prop_assert_eq!(rows_of(&served.rows), rows_of(rows), "{}", context);
            prop_assert_eq!(&served.completeness, completeness, "{}", context);
        }
        (Err(served), Err(every)) => {
            prop_assert_eq!(served.category(), every.category(), "{}", context);
            prop_assert_eq!(served.message(), every.message(), "{}", context);
        }
        (served, every) => prop_assert!(
            false,
            "{}: served {:?} but every branch {:?}",
            context,
            served.as_ref().map(|a| &a.completeness),
            every.as_ref().map(|(_, c)| c)
        ),
    }
    Ok(())
}

/// A random fault schedule: kills by bit mask over `wrappers`, then a
/// transient rate that switches at attempt `switch_at`.
#[derive(Clone, Debug)]
struct Faults {
    seed: u64,
    kill_mask: u16,
    early_pct: u32,
    late_pct: u32,
    switch_at: u64,
}

impl Faults {
    fn plan(&self, wrappers: &[String]) -> FaultPlan {
        let mut plan = FaultPlan::seeded(self.seed)
            .transient_window(1, f64::from(self.early_pct) / 100.0)
            .transient_window(self.switch_at, f64::from(self.late_pct) / 100.0);
        for (i, wrapper) in wrappers.iter().enumerate() {
            if self.kill_mask & (1 << (i % 16)) != 0 {
                plan = plan.kill(wrapper.as_str());
            }
        }
        plan
    }
}

fn arb_faults() -> impl Strategy<Value = Faults> {
    (any::<u64>(), any::<u16>(), 0u32..70, 0u32..40, 1u64..4).prop_map(
        |(seed, kill_mask, early_pct, late_pct, switch_at)| Faults {
            seed,
            kill_mask,
            early_pct,
            late_pct,
            switch_at,
        },
    )
}

/// (concepts, versions): 3-concept chains stop at 3 versions so the
/// widest walk stays at 243 branches.
fn arb_shape() -> impl Strategy<Value = (usize, usize)> {
    (2usize..=3, 1usize..=4).prop_map(|(concepts, versions)| {
        let max_versions = if concepts == 3 { 3 } else { 4 };
        (concepts, versions.min(max_versions))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn served_equals_every_branch_run_and_the_reference(
        shape in arb_shape(),
        seed in 0u64..1_000,
        walk_kind in 0usize..4,
        faults in arb_faults(),
        max_attempts in 1u32..4,
    ) {
        let (concepts, versions) = shape;
        let eco = ecosystem(concepts, versions, seed);
        // 0 is the `scan_join` walk, k > 0 the chain walk over k concepts.
        let walk = match walk_kind {
            0 => scan_join_walk(),
            k => chain_walk(&eco, k),
        };
        let wrappers: Vec<String> = eco.all_wrappers().map(|w| w.name().to_string()).collect();
        for threads in THREADS {
            let context = format!("{threads} thread(s)");
            let (mut mdm, stats) = system(&eco, threads, max_attempts);
            // Fault-free, the served rows are the reference's. The
            // run also fills the statistics both faulted runs read.
            let served = mdm.query_degraded(&walk, Deadline::none()).unwrap();
            let reference = mdm.query(&walk).unwrap();
            prop_assert_eq!(
                rows_of(&served.rows),
                format!("{:?}", reference.table.rows()),
                "{}",
                context
            );
            prop_assert!(served.completeness.is_complete());

            let plan = Arc::new(faults.plan(&wrappers));
            mdm.set_fault_plan(Some(Arc::clone(&plan)));
            mdm.set_breaker_config(BreakerConfig::default());
            let served = mdm.query_degraded(&walk, Deadline::none());
            plan.reset();
            let every = run_every_branch(&mdm, &stats, &walk, max_attempts);
            assert_same(&served, &every, &context)?;
        }
    }
}

/// The `scan_join` system at two versions per source: C0 from `s0_v1`,
/// `s0_v2`; C1 from those and `s1_v1`, `s1_v2`.
fn scan_join_system(threads: usize) -> (Mdm, Arc<StatsCatalog>) {
    system(&ecosystem(2, 2, 42), threads, 1)
}

/// The every-branch reference for a faulted query, fault counters reset.
fn served_and_every(
    mdm: &Mdm,
    stats: &Arc<StatsCatalog>,
    plan: &FaultPlan,
    max_attempts: u32,
) -> (DegradedAnswer, Completeness) {
    let walk = scan_join_walk();
    let served = mdm.query_degraded(&walk, Deadline::none()).unwrap();
    plan.reset();
    let (rows, every) = run_every_branch(mdm, stats, &walk, max_attempts).unwrap();
    assert_eq!(rows_of(&served.rows), rows_of(&rows));
    assert_eq!(served.completeness, every);
    (served, every)
}

/// The `wrapper@v2`-labelled atom sets of the branches scanning `wrapper`.
fn branches_mentioning(mdm: &Mdm, wrapper: &str) -> BTreeSet<Vec<String>> {
    let rewriting = mdm.rewrite_cached(&scan_join_walk()).unwrap();
    rewriting
        .queries
        .iter()
        .filter(|cq| cq.atoms.iter().any(|a| a == wrapper))
        .map(|cq| {
            cq.atoms
                .iter()
                .map(|a| format!("{a}@v{}", mdm.catalog().get(a).unwrap().version()))
                .collect()
        })
        .collect()
}

#[test]
fn scan_join_runs_two_of_its_sixteen_branches() {
    let (mdm, _) = scan_join_system(1);
    let rewriting = mdm.rewrite_cached(&scan_join_walk()).unwrap();
    assert_eq!(rewriting.branch_count(), 16);
    let uncovered: Vec<usize> = (0..16)
        .filter(|&i| rewriting.covered_by[i].is_none())
        .collect();
    assert_eq!(uncovered, vec![0, 8]);
}

/// `explain` renders the prepared plans the served path runs: the merge,
/// then all 16 branches once, in rewriting order. The 14 covered ones name
/// their container and show no plan; the scans shown are exactly those of
/// the 2 plans that run, and no operator is a ∪.
#[test]
fn explain_shows_the_two_branch_plans_the_server_runs() {
    let (mdm, stats) = scan_join_system(1);
    let walk = scan_join_walk();
    let text = mdm.explain_plan(&walk).unwrap();
    let rewriting = mdm.rewrite_cached(&walk).unwrap();
    assert_eq!(rewriting.branch_count(), 16);
    // The branch plans as the served path prepares them.
    let resolve = |name: &str| mdm.catalog().relation_schema(name);
    let optimizer = Optimizer::new(stats.as_ref(), &resolve);
    let plans = PreparedPlans::prepare(&rewriting, &|plan| {
        optimizer.optimize_with(mdm.optimize_mode(), plan)
    })
    .unwrap();

    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "δ over 16 branches: 2 run, 14 covered", "{text}");
    let headers: Vec<usize> = (0..lines.len())
        .filter(|&n| lines[n].starts_with("branch "))
        .collect();
    assert_eq!(headers.len(), 16, "{text}");
    let mut want_scans = Vec::new();
    for (i, (cq, &at)) in rewriting.queries.iter().zip(&headers).enumerate() {
        let label = format!("branch {} [{}]", i + 1, cq.atoms.join("+"));
        match rewriting.covered_by[i] {
            Some(j) => {
                assert_eq!(lines[at], format!("{label}: covered by branch {}", j + 1));
                let next = lines.get(at + 1);
                assert!(
                    next.is_none_or(|line| line.starts_with("branch ")),
                    "{text}"
                );
            }
            None => {
                assert_eq!(lines[at], label);
                want_scans.extend(plans.branches[i].scans.iter().map(|s| format!("scan {s}")));
            }
        }
    }
    let operators: Vec<&str> = lines
        .iter()
        .filter(|line| line.starts_with("  "))
        .map(|line| line.trim_start())
        .collect();
    let scans: Vec<&str> = operators
        .iter()
        .filter(|op| op.starts_with("scan "))
        .map(|op| op.split("  ").next().unwrap())
        .collect();
    assert_eq!(scans, want_scans, "{text}");
    assert!(!operators.iter().any(|op| op.starts_with('∪')), "{text}");
    assert!(text.contains("act=") && text.contains("est≈"), "{text}");
}

/// Explaining a cold walk prepares its branch plans, and they are the ones
/// the query after it runs: that query prepares nothing.
#[test]
fn explaining_a_cold_walk_prepares_what_the_next_query_runs() {
    let (mdm, _) = scan_join_system(1);
    let walk = scan_join_walk();
    mdm.explain_plan(&walk).unwrap();
    let prepared = mdm.branch_plans_optimized();
    assert_eq!(prepared, 16);
    mdm.query_degraded(&walk, Deadline::none()).unwrap();
    assert_eq!(mdm.branch_plans_optimized(), prepared);
}

#[test]
fn killing_a_c1_wrapper_drops_exactly_its_branches_and_keeps_every_row() {
    for threads in THREADS {
        let (mut mdm, stats) = scan_join_system(threads);
        let clean = mdm
            .query_degraded(&scan_join_walk(), Deadline::none())
            .unwrap();
        let plan = Arc::new(FaultPlan::seeded(1).kill("s1_v1"));
        mdm.set_fault_plan(Some(Arc::clone(&plan)));
        let (served, _) = served_and_every(&mdm, &stats, &plan, 1);
        assert!(served.completeness.summary().starts_with("PARTIAL"));
        let dropped: BTreeSet<Vec<String>> = served
            .completeness
            .dropped
            .iter()
            .map(|d| d.wrappers.clone())
            .collect();
        assert_eq!(dropped, branches_mentioning(&mdm, "s1_v1"));
        assert_eq!(dropped.len(), 4);
        assert_eq!(served.completeness.executed_branches, 12);
        // Branches 1 and 9 never scan s1_v1: the answer is whole.
        assert_eq!(rows_of(&served.rows), rows_of(&clean.rows));
    }
}

#[test]
fn killing_a_container_wrapper_runs_its_covered_branches_to_their_own_errors() {
    for threads in THREADS {
        let (mut mdm, stats) = scan_join_system(threads);
        let plan = Arc::new(FaultPlan::seeded(1).kill("s0_v1"));
        mdm.set_fault_plan(Some(Arc::clone(&plan)));
        // Branch 1 dies, and branches 2–8 with it: each one's prefetch
        // fails, so it runs and reports the same error it always did.
        let (served, _) = served_and_every(&mdm, &stats, &plan, 1);
        let dropped: BTreeSet<Vec<String>> = served
            .completeness
            .dropped
            .iter()
            .map(|d| d.wrappers.clone())
            .collect();
        assert_eq!(dropped, branches_mentioning(&mdm, "s0_v1"));
        for branch in &served.completeness.dropped {
            assert_eq!(branch.kind, "permanent");
            assert!(
                branch.reason.contains("injected terminal fault"),
                "{branch:?}"
            );
        }
    }
}

#[test]
fn retries_absorbed_by_a_prefetch_are_counted() {
    for threads in THREADS {
        let (mut mdm, stats) = scan_join_system(threads);
        mdm.set_retry_policy(instant_retries(2));
        // Every wrapper fails its first attempt. Only covered branches
        // scan s1_v1 and s1_v2, so their prefetches pay two retries.
        let plan = Arc::new(
            FaultPlan::seeded(2)
                .transient_window(1, 1.0)
                .transient_window(2, 0.0),
        );
        mdm.set_fault_plan(Some(Arc::clone(&plan)));
        let (served, _) = served_and_every(&mdm, &stats, &plan, 2);
        assert!(served.completeness.is_complete());
        assert_eq!(served.completeness.retries, 4);
    }
}

/// A container dropped for a reason of its own — here a broken plan —
/// after its covered branches fetched everything: they run after all, and
/// their rows stand in for the container's.
#[test]
fn a_dropped_container_runs_its_covered_branches() {
    for threads in THREADS {
        let (mdm, _) = scan_join_system(threads);
        let walk = scan_join_walk();
        let covered = (*mdm.rewrite_cached(&walk).unwrap()).clone();
        let every = every_branch(&mdm, &walk);
        let exec_options = ExecOptions {
            pool: (threads > 1).then(|| Arc::new(Pool::new(threads))),
            epoch: mdm.epoch(),
            ..ExecOptions::default()
        };
        let break_branch_one = |plan: Plan| {
            if plan.scanned_relations() == ["s0_v1"] {
                let missing = ColumnRef::bare("missing");
                plan.join(Plan::scan("s0_v1"), vec![(missing.clone(), missing)])
            } else {
                plan
            }
        };
        let run = |rewriting: &Rewriting| {
            let plans = PreparedPlans::prepare(rewriting, &break_branch_one).unwrap();
            execute_degraded(rewriting, mdm.catalog(), &plans, &exec_options, None, false).unwrap()
        };
        let (rows, completeness) = run(&covered);
        let (every_rows, every_completeness) = run(&every);
        assert_eq!(completeness, every_completeness);
        assert_eq!(rows_of(&rows), rows_of(&every_rows));
        assert_eq!(completeness.executed_branches, 15);
        assert_eq!(completeness.dropped.len(), 1);
        assert!(completeness.dropped[0].reason.contains("join key"));
    }
}

/// One wrapper column holds `170` in one row and `170.0` in another, and
/// the other version spells them the other way round. δ keeps the first of
/// `==` rows in rewriting order, which a covered branch never supplies.
#[test]
fn ints_and_floats_that_are_equal_keep_the_first_spelling() {
    let (mdm, _) = scan_join_system(1);
    let walk = scan_join_walk();
    let covered = (*mdm.rewrite_cached(&walk).unwrap()).clone();
    assert_eq!(covered.covered_by.iter().flatten().count(), 14);
    let every = every_branch(&mdm, &walk);
    let mut catalog = MemoryCatalog::new();
    let c0 = |id: i64, f0: Value| vec![Value::Int(id), f0, Value::Int(id)];
    for (name, first, second) in [
        ("s0_v1", Value::Int(170), Value::Float(170.0)),
        ("s0_v2", Value::Float(170.0), Value::Int(170)),
    ] {
        let rows = vec![c0(1, first), c0(2, second), c0(3, Value::str("x"))];
        let schema = Schema::qualified(name, ["id", "c0_f0", "c0_next"]);
        catalog.register(name, Table::new(schema, rows).unwrap());
    }
    for name in ["s1_v1", "s1_v2"] {
        let rows = (1..=3)
            .map(|id| vec![Value::Int(id), Value::str("c1")])
            .collect();
        let schema = Schema::qualified(name, ["id", "c1_f0"]);
        catalog.register(name, Table::new(schema, rows).unwrap());
    }
    for threads in THREADS {
        let exec_options = ExecOptions {
            pool: (threads > 1).then(|| Arc::new(Pool::new(threads))),
            stats: None,
            ..ExecOptions::default()
        };
        let run = |rewriting: &Rewriting| {
            let plans = PreparedPlans::prepare(rewriting, &|plan| plan).unwrap();
            let (rows, completeness) =
                execute_degraded(rewriting, &catalog, &plans, &exec_options, None, false).unwrap();
            assert!(completeness.is_complete());
            rows_of(&rows)
        };
        let reference = answer_walk_with(
            mdm.ontology(),
            &walk,
            &catalog,
            &RewriteOptions::default(),
            &exec_options,
        )
        .unwrap();
        let served = run(&covered);
        assert_eq!(served, run(&every), "{threads} thread(s)");
        assert_eq!(served, format!("{:?}", reference.table.rows()));
        assert_eq!(served, r#"[[Int(170)], [Str("x")]]"#);
    }
}
