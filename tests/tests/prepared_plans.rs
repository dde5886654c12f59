//! Prepared branch plans. Each plan-cache entry keeps its rewriting's
//! branch plans, optimized once, and prepares them again only when the
//! optimizer's inputs moved: the stats catalog, its version, or the
//! optimize mode. These tests count the preparations through
//! `Mdm::branch_plans_optimized`:
//!
//! * a warm repeat prepares nothing;
//! * `refresh_stats`, the first fetch of a newly released wrapper,
//!   `set_optimize` and `set_stats_catalog` each make the next query
//!   prepare every branch once.
//!
//! Every served answer along the way is held to two references: the cold
//! `Mdm::query`, and `execute_degraded` over plans optimized afresh for
//! that query (rows by `Debug`, and the whole `Completeness`).

use std::sync::Arc;

use mdm_core::query::{execute_degraded, PreparedPlans};
use mdm_core::rewrite::plan_for_cq;
use mdm_core::synthetic::{
    chain_walk, concept_iri, feature_iri, mdm_from_synthetic, register_synthetic_wrapper,
};
use mdm_core::{usecase, Mdm, Walk};
use mdm_relational::{
    BreakerConfig, BreakerRegistry, Catalog, Deadline, ExecOptions, Executor, OptimizeMode,
    Optimizer, StatsCatalog, Tuple, Value,
};
use mdm_wrappers::football;
use mdm_wrappers::workload::{build, SyntheticEcosystem, WorkloadConfig};

/// A system with a statistics catalog of its own, so nothing else in the
/// process moves the version these tests count against.
struct System {
    mdm: Mdm,
    stats: Arc<StatsCatalog>,
}

impl System {
    fn new(mut mdm: Mdm) -> System {
        let stats = Arc::new(StatsCatalog::new());
        mdm.set_stats_catalog(Arc::clone(&stats));
        System { mdm, stats }
    }

    fn set_stats_catalog(&mut self, stats: &Arc<StatsCatalog>) {
        self.mdm.set_stats_catalog(Arc::clone(stats));
        self.stats = Arc::clone(stats);
    }

    /// Serves `walk` once, holds the answer to both references and
    /// returns how many branch plans the query prepared.
    fn serve(&self, walk: &Walk) -> u64 {
        let mdm = &self.mdm;
        let before = mdm.branch_plans_optimized();
        let served = mdm.query_degraded(walk, Deadline::none()).unwrap();
        let prepared = mdm.branch_plans_optimized() - before;

        let reference = mdm.query(walk).unwrap();
        let rows = format!("{:?}", served.table().rows());
        assert_eq!(rows, format!("{:?}", reference.table.rows()));
        assert!(served.completeness.is_complete());

        // The same rewriting over plans optimized for this query alone.
        let rewriting = mdm.rewrite_cached(walk).unwrap();
        assert!(Arc::ptr_eq(&rewriting, &served.rewriting));
        let resolve = |name: &str| mdm.catalog().relation_schema(name);
        let optimizer = Optimizer::new(self.stats.as_ref(), &resolve);
        let plans = PreparedPlans::prepare(&rewriting, &|plan| {
            optimizer.optimize_with(mdm.optimize_mode(), plan)
        })
        .unwrap();
        let exec_options = ExecOptions {
            epoch: mdm.epoch(),
            stats: Some(Arc::clone(&self.stats)),
            ..ExecOptions::default()
        };
        let breakers = BreakerRegistry::new(BreakerConfig::default());
        let (fresh, mut completeness) = execute_degraded(
            &rewriting,
            mdm.catalog(),
            &plans,
            &exec_options,
            Some(&breakers),
            false,
        )
        .unwrap();
        let label = |name: &String| {
            let version = mdm.catalog().get(name).expect("registered").version();
            format!("{name}@v{version}")
        };
        completeness.contributors = completeness.contributors.iter().map(label).collect();
        assert_eq!(format!("{:?}", fresh.to_table().rows()), rows);
        assert_eq!(completeness, served.completeness);
        prepared
    }

    /// Serves `walk` until a query prepares nothing; at most three
    /// queries, since the first one's observations move the statistics
    /// once.
    fn warm(&self, walk: &Walk) {
        assert!(
            (0..3).any(|_| self.serve(walk) == 0),
            "{walk:?} never stopped preparing"
        );
    }

    fn branches(&self, walk: &Walk) -> u64 {
        self.mdm.rewrite_cached(walk).unwrap().branch_count() as u64
    }
}

/// The paper's use case after the Players v2 release: the Figure 8 walk
/// unions four branches.
fn football_v2() -> (System, Walk) {
    let eco = football::build_default();
    let mut mdm = usecase::football_mdm(&eco).unwrap();
    usecase::register_players_v2(&mut mdm, &eco).unwrap();
    let system = System::new(mdm);
    let walk = usecase::figure8_walk();
    assert_eq!(system.branches(&walk), 4);
    (system, walk)
}

/// A 3-concept chain, three versions per source, 8 rows per wrapper.
fn chain_ecosystem() -> SyntheticEcosystem {
    build(&WorkloadConfig {
        concepts: 3,
        features_per_concept: 1,
        versions_per_source: 3,
        rows_per_wrapper: 8,
        seed: 17,
    })
}

/// The chain system and the walk over its three concepts, whose branches
/// combine every version of C0, C1 and C2.
fn chain() -> (System, Walk) {
    let eco = chain_ecosystem();
    let system = System::new(mdm_from_synthetic(&eco).unwrap());
    let walk = chain_walk(&eco, 3);
    assert!(system.branches(&walk) >= 9);
    (system, walk)
}

/// The first query prepares every branch. Its scans profile the wrappers,
/// which moves the statistics, so the second prepares them again; from
/// then on a repeat prepares nothing — on the plain and the provenance
/// path alike, which share the plans.
#[test]
fn a_warm_repeat_prepares_no_plan() {
    for (system, walk) in [football_v2(), chain()] {
        let branches = system.branches(&walk);
        assert_eq!(system.serve(&walk), branches);
        assert_eq!(system.serve(&walk), branches);
        for _ in 0..3 {
            assert_eq!(system.serve(&walk), 0);
        }
        let before = system.mdm.branch_plans_optimized();
        let traced = system.mdm.query_with_provenance(&walk).unwrap();
        assert!(!traced.table.is_empty());
        assert_eq!(system.mdm.branch_plans_optimized(), before);
        // Reading the prepared plans moves no cache counter: one hit per
        // query, as before.
        let stats = system.mdm.cache_stats();
        system.serve(&walk);
        let after = system.mdm.cache_stats();
        assert_eq!(
            after.hits,
            stats.hits + 2,
            "the query and the check's lookup"
        );
        assert_eq!(after.misses, stats.misses);
    }
}

#[test]
fn refresh_stats_prepares_every_branch_once() {
    for (system, walk) in [football_v2(), chain()] {
        system.warm(&walk);
        let metadata_epoch = system.mdm.epoch();
        system.mdm.refresh_stats();
        assert_eq!(system.serve(&walk), system.branches(&walk));
        // The refresh re-profiles every wrapper, but the numbers are the
        // same, so the version stays where the refresh put it.
        assert_eq!(system.serve(&walk), 0);
        assert_eq!(system.mdm.epoch(), metadata_epoch);
    }
}

#[test]
fn set_optimize_prepares_every_branch_once() {
    for (mut system, walk) in [football_v2(), chain()] {
        system.warm(&walk);
        for mode in [OptimizeMode::Off, OptimizeMode::Cost] {
            system.mdm.set_optimize(mode);
            assert_eq!(system.serve(&walk), system.branches(&walk), "{mode}");
            assert_eq!(system.serve(&walk), 0, "{mode}");
        }
    }
}

/// A new catalog is a new input: the next query prepares every branch. A
/// fresh catalog then fills from that query's scans, which moves it once
/// more; switching back to the old, already-filled catalog costs exactly
/// one preparation.
#[test]
fn set_stats_catalog_prepares_every_branch_once() {
    for (mut system, walk) in [football_v2(), chain()] {
        system.warm(&walk);
        let branches = system.branches(&walk);
        let filled = Arc::clone(&system.stats);
        system.set_stats_catalog(&Arc::new(StatsCatalog::new()));
        assert_eq!(system.serve(&walk), branches);
        assert_eq!(system.serve(&walk), branches, "the fresh catalog filled");
        assert_eq!(system.serve(&walk), 0);
        system.set_stats_catalog(&filled);
        assert_eq!(system.serve(&walk), branches);
        assert_eq!(system.serve(&walk), 0);
    }
}

/// A release on C2 leaves the cached walk over C0 valid and its plans
/// prepared. The first fetch of the new wrapper — by a walk that reads
/// C2 — profiles a new relation, so the C0 walk's next query prepares
/// every branch once.
#[test]
fn a_new_wrappers_first_fetch_prepares_every_branch_once() {
    let eco = chain_ecosystem();
    let mut held_back = eco.clone();
    let release = held_back.sources[2].wrappers.pop().unwrap();
    let mut system = System::new(mdm_from_synthetic(&held_back).unwrap());
    let walk = chain_walk(&eco, 1);
    let c2 = Walk::new().feature(&concept_iri(2), &feature_iri(2, "c2_f0"));
    // Each walk's first scans move the statistics the other's plans were
    // prepared against; a second round settles both.
    system.warm(&walk);
    system.warm(&c2);
    system.warm(&walk);
    let branches = system.branches(&walk);
    let c2_branches = system.branches(&c2);

    register_synthetic_wrapper(&mut system.mdm, &eco, 2, release).unwrap();
    let misses = system.mdm.cache_stats().misses;
    assert_eq!(system.serve(&walk), 0, "the release alone moves nothing");
    assert_eq!(system.mdm.cache_stats().misses, misses, "the walk survived");

    // The C2 walk gained the release's branch; its first query prepares
    // the new entry and fetches the new wrapper.
    assert_eq!(system.branches(&c2), c2_branches + 1);
    assert_eq!(system.serve(&c2), c2_branches + 1);
    assert_eq!(system.serve(&walk), branches);
    assert_eq!(system.serve(&walk), 0);
    // The C2 walk itself prepared once more for its own observation.
    assert_eq!(system.serve(&c2), c2_branches + 1);
    assert_eq!(system.serve(&c2), 0);
}

/// The prepared plans have no δ: under δ, the provenance merge
/// deduplicates within each branch. `query_with_provenance` equals each
/// branch run cold under its own δ, labelled with its wrapper set,
/// concatenated in rewriting order and sorted — cold and warm, sequential
/// and pooled. Football's team name + foot walk repeats rows within a
/// branch (teammates who kick with the same foot), so there the per-branch
/// δ drops rows.
#[test]
fn provenance_equals_each_branch_deduplicated_on_its_own() {
    let team_foot = Walk::new()
        .feature(&usecase::sports_team(), &usecase::ex("teamName"))
        .feature(&usecase::ex("Player"), &usecase::ex("foot"))
        .relation(
            &usecase::ex("Player"),
            &usecase::ex("hasTeam"),
            &usecase::sports_team(),
        );
    let mut dropped_somewhere = false;
    for (mut system, walk) in [football_v2(), (football_v2().0, team_foot), chain()] {
        let rewriting = system.mdm.rewrite_cached(&walk).unwrap();
        let mut oracle: Vec<Tuple> = Vec::new();
        let mut derivations = 0;
        for cq in &rewriting.queries {
            let plan = plan_for_cq(cq, &rewriting.output_columns).unwrap();
            let executor = Executor::new(system.mdm.catalog());
            derivations += executor.run(&plan).unwrap().len();
            let label = Value::str(cq.atoms.join("+"));
            let table = executor.run(&plan.distinct()).unwrap();
            oracle.extend(table.rows().iter().map(|row| {
                let mut row = row.clone();
                row.push(label.clone());
                row
            }));
        }
        dropped_somewhere |= oracle.len() < derivations;
        oracle.sort();
        let oracle = format!("{oracle:?}");
        for threads in [1, 4] {
            system.mdm.set_threads(threads);
            for _ in 0..2 {
                let traced = system.mdm.query_with_provenance(&walk).unwrap();
                assert_eq!(format!("{:?}", traced.table.rows()), oracle, "{threads}");
            }
        }
    }
    assert!(dropped_somewhere, "no walk repeats a row within a branch");
}
