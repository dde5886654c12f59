//! Parallel-execution integration tests: the served path
//! (`Mdm::query_degraded`) fans UCQ branches out on the worker pool without
//! changing a single byte of any answer, and the per-query scan cache
//! collapses repeated wrapper fetches to one per wrapper per query.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use mdm_core::synthetic::{chain_walk, mdm_from_synthetic};
use mdm_core::usecase;
use mdm_core::Mdm;
use mdm_relational::columnar::encode_rows;
use mdm_relational::scan_cache::EncodedScan;
use mdm_relational::schema::ColumnRef;
use mdm_relational::{
    Catalog, Deadline, ExecError, ExecOptions, Executor, Plan, Pool, RelationProvider, RetryPolicy,
    ScanCache, Schema, Tuple, Value,
};
use mdm_wrappers::football;
use mdm_wrappers::workload::{build, WorkloadConfig};
use mdm_wrappers::FaultPlan;

// ---------------------------------------------------------------------
// (a) the scan cache: 8 branches over 2 wrappers = exactly 2 fetches
// ---------------------------------------------------------------------

/// A provider that counts how many times its rows were materialised.
struct Counting {
    name: &'static str,
    fetches: AtomicU64,
}

impl Counting {
    fn new(name: &'static str) -> Self {
        Counting {
            name,
            fetches: AtomicU64::new(0),
        }
    }
}

impl RelationProvider for Counting {
    fn provider_schema(&self) -> Schema {
        Schema::qualified(self.name, ["id"])
    }

    fn columns(&self) -> Result<(EncodedScan, usize), ExecError> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let rows: Vec<Tuple> = (0..16).map(|n| vec![Value::Int(n)]).collect();
        Ok((Arc::new(encode_rows(&rows, 1)), rows.len()))
    }
}

struct PairCatalog {
    wa: Counting,
    wb: Counting,
}

impl Catalog for PairCatalog {
    fn provider(&self, name: &str) -> Option<&dyn RelationProvider> {
        match name {
            "wa" => Some(&self.wa),
            "wb" => Some(&self.wb),
            _ => None,
        }
    }
}

#[test]
fn eight_branches_over_two_wrappers_fetch_each_wrapper_once() {
    let catalog = PairCatalog {
        wa: Counting::new("wa"),
        wb: Counting::new("wb"),
    };
    // Eight branch plans alternating over the two providers — the shape
    // a version-crossing UCQ takes when branches share wrappers — run one
    // after the other through one executor over one scan cache.
    let plans: Vec<Plan> = (0..8)
        .map(|i| {
            let name = if i % 2 == 0 { "wa" } else { "wb" };
            let id = ColumnRef::qualified(name, "id");
            Plan::scan(name).filter(id.clone(), id)
        })
        .collect();
    let cache = ScanCache::new();
    let options = ExecOptions {
        pool: Some(Arc::new(Pool::new(4))),
        ..ExecOptions::default()
    };
    let executor = Executor::with_options(&catalog, options).with_scan_cache(&cache);
    for plan in &plans {
        assert_eq!(executor.run(plan).unwrap().len(), 16, "{plan}");
    }
    assert_eq!(catalog.wa.fetches.load(Ordering::Relaxed), 1);
    assert_eq!(catalog.wb.fetches.load(Ordering::Relaxed), 1);
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (2, 6),
        "8 branch scans collapse to 2 provider fetches"
    );
}

/// The reference path (`Mdm::query`) runs its branch plans one by one,
/// yet over one scan cache: on E6 (8 branches over 4 wrappers) every
/// wrapper is fetched once per query, and the stats catalog learns each
/// wrapper on the first query only. Pinned to what the whole `δ(∪ …)`
/// plan it replaced did: fetches 1/1/1/1 per query, version 0 → 4 → 4.
#[test]
fn reference_query_fetches_each_wrapper_once_and_profiles_it_once() {
    let config = WorkloadConfig {
        concepts: 2,
        features_per_concept: 3,
        versions_per_source: 2,
        rows_per_wrapper: 200,
        seed: 42,
    };
    let eco = build(&config);
    let mut mdm = mdm_from_synthetic(&eco).unwrap();
    let stats = Arc::new(mdm_relational::StatsCatalog::new());
    mdm.set_stats_catalog(Arc::clone(&stats));
    let walk = chain_walk(&eco, 2);
    let mut names = mdm.catalog().names();
    names.sort_unstable();
    assert_eq!(names, ["s0_v1", "s0_v2", "s1_v1", "s1_v2"]);
    let fetches = || -> Vec<u64> {
        names
            .iter()
            .map(|name| mdm.catalog().get(name).unwrap().fetch_count())
            .collect()
    };
    assert_eq!(stats.version(), 0);
    for version_after in [4, 4] {
        let before = fetches();
        let answer = mdm.query(&walk).unwrap();
        assert_eq!(answer.rewriting.branch_count(), 8);
        assert_eq!(answer.table.len(), 800);
        let moved: Vec<u64> = fetches().iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(moved, [1, 1, 1, 1], "each wrapper once per query");
        assert_eq!(stats.version(), version_after);
    }
}

#[test]
fn wrappers_are_fetched_once_per_query_through_the_facade() {
    // The evolved football system: the figure-8 walk rewrites to 4 branches
    // (w1|w3 for the player features × w1|w3 for the relation), every one
    // of which joins w2 for the team name. Without the scan cache w2 paid
    // 4 fetches per query.
    let eco = football::build_default();
    let mut mdm = usecase::football_mdm(&eco).unwrap();
    usecase::register_players_v2(&mut mdm, &eco).unwrap();
    let walk = usecase::figure8_walk();
    mdm.set_threads(4);
    let served = mdm.query_degraded(&walk, Deadline::none()).unwrap();
    assert!(served.rewriting.branch_count() >= 4);
    let fetched = |name: &str| mdm.catalog().get(name).unwrap().fetch_count();
    for name in ["w1", "w2", "w3"] {
        assert_eq!(
            fetched(name),
            1,
            "{name} must be fetched exactly once per served query"
        );
    }
    // The cold reference path keeps the same guarantee.
    mdm.query(&walk).unwrap();
    for name in ["w1", "w2", "w3"] {
        assert_eq!(fetched(name), 2, "{name}: once more for the reference");
    }
}

// ---------------------------------------------------------------------
// (b) parallel execution is byte-identical to sequential
// ---------------------------------------------------------------------

fn synthetic_mdm(
    concepts: usize,
    versions: usize,
    rows: usize,
    seed: u64,
) -> (Mdm, mdm_core::Walk) {
    let config = WorkloadConfig {
        concepts,
        features_per_concept: 3,
        versions_per_source: versions,
        rows_per_wrapper: rows,
        seed,
    };
    let eco = build(&config);
    let mdm = mdm_from_synthetic(&eco).expect("synthetic system builds");
    let walk = chain_walk(&eco, concepts);
    (mdm, walk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Across random ecosystem shapes, a 4-worker pool renders the exact
    /// same table as the forced-sequential path.
    #[test]
    fn parallel_answers_match_sequential_byte_for_byte(
        concepts in 1usize..3,
        versions in 1usize..4,
        rows in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let (mut mdm, walk) = synthetic_mdm(concepts, versions, rows, seed);
        mdm.set_threads(1);
        let sequential = mdm.query_degraded(&walk, Deadline::none()).unwrap();
        mdm.set_threads(4);
        let parallel = mdm.query_degraded(&walk, Deadline::none()).unwrap();
        prop_assert_eq!(sequential.render(), parallel.render());
        prop_assert_eq!(sequential.table(), parallel.table());
        // And both are the cold reference's answer.
        prop_assert_eq!(parallel.render(), mdm.query(&walk).unwrap().render());
    }

    /// Degraded mode under concurrent branch failures reports the same
    /// completeness (and the same surviving rows) as sequential execution.
    #[test]
    fn degraded_completeness_is_identical_under_parallelism(
        seed in 0u64..1_000,
        victim_idx in 0usize..2,
    ) {
        let victim = ["w1", "w3"][victim_idx];
        let walk = usecase::figure8_walk();
        let eco = football::build_default();
        let mut mdm = usecase::football_mdm(&eco).unwrap();
        usecase::register_players_v2(&mut mdm, &eco).unwrap();
        mdm.set_retry_policy(RetryPolicy::none());
        mdm.set_fault_plan(Some(Arc::new(FaultPlan::seeded(seed).kill(victim))));

        mdm.set_threads(1);
        let sequential = mdm.query_degraded(&walk, Deadline::none()).unwrap();
        mdm.set_threads(4);
        let parallel = mdm.query_degraded(&walk, Deadline::none()).unwrap();

        prop_assert_eq!(sequential.render(), parallel.render());
        prop_assert_eq!(
            sequential.completeness.executed_branches,
            parallel.completeness.executed_branches
        );
        prop_assert_eq!(
            &sequential.completeness.contributors,
            &parallel.completeness.contributors
        );
        prop_assert_eq!(
            sequential.completeness.dropped.len(),
            parallel.completeness.dropped.len()
        );
        for (s, p) in sequential
            .completeness
            .dropped
            .iter()
            .zip(parallel.completeness.dropped.iter())
        {
            prop_assert_eq!(&s.wrappers, &p.wrappers);
            prop_assert_eq!(&s.kind, &p.kind);
            prop_assert_eq!(&s.reason, &p.reason);
        }
    }
}

// ---------------------------------------------------------------------
// (c) pool knobs are visible end to end
// ---------------------------------------------------------------------

#[test]
fn set_threads_switches_between_pool_and_sequential() {
    let eco = football::build_default();
    let mut mdm = usecase::football_mdm(&eco).unwrap();
    mdm.set_threads(4);
    assert_eq!(mdm.threads(), 4);
    let stats = mdm.pool_stats().expect("pool attached");
    assert_eq!(stats.size, 4);
    mdm.set_threads(1);
    assert_eq!(mdm.threads(), 1);
    assert!(
        mdm.pool_stats().is_none(),
        "threads=1 is the sequential path"
    );
    // Queries work identically in both modes.
    mdm.set_threads(4);
    let walk = usecase::figure8_walk();
    let with_pool = mdm
        .query_degraded(&walk, Deadline::none())
        .unwrap()
        .render();
    mdm.set_threads(1);
    let without = mdm
        .query_degraded(&walk, Deadline::none())
        .unwrap()
        .render();
    assert_eq!(with_pool, without);
}
