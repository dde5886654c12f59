//! P15 — evolution churn: sustained analyst traffic over the head of a
//! long concept chain while the steward releases new wrapper versions over
//! the tail, under surgical invalidation — each commit's footprint sweep
//! keeps, extends or drops every cached plan, the only behaviour the cache
//! has. The coarse (epoch-equality) cell this bench
//! used to run beside it is retired with the mode; its 0.00 → 1.00
//! hit-rate result stays in EXPERIMENTS.md as a dated record.
//!
//! Two cells:
//!
//! * **disjoint** — releases land ≥ 2 concepts away from anything the hot
//!   walks read: every plan stays hot (hit rate ≥ 0.95).
//! * **overlap** — mapping-only releases over a concept the hot walks DO
//!   read: the cached plan is repaired by incremental UCQ extension (full
//!   rewrites stay at the warm-up count).
//!
//! Every cell asserts the served plan is byte-identical to a cold rewrite
//! before reporting. A final micro-bench times `PlanCache` insert+evict at
//! capacity 256 (every insert scans the full cache for its LRU victim) and
//! the hot lookup.

use std::sync::Arc;
use std::time::Instant;

use mdm_core::rewrite::rewrite_walk_with_artifacts;
use mdm_core::synthetic::{chain_walk, concept_iri, feature_iri, register_synthetic_wrapper};
use mdm_core::{Found, Mdm, PlanCache, RewriteOptions};
use mdm_wrappers::workload::{build, SyntheticEcosystem, WorkloadConfig};

/// Chain length; hot walks read concepts 0..3, releases land on 5..7.
const CONCEPTS: usize = 8;
/// Steward releases per cell.
const ROUNDS: usize = 24;
/// Hot walks replayed after every release (k = 1, 2, 3).
const HOT_WALKS: usize = 3;

fn ecosystem() -> SyntheticEcosystem {
    build(&WorkloadConfig {
        concepts: CONCEPTS,
        features_per_concept: 3,
        // v1 seeds the base system; the rest is the release supply for the
        // two churned sources (ROUNDS / 2 each).
        versions_per_source: 1 + ROUNDS / 2,
        rows_per_wrapper: 1,
        seed: 42,
    })
}

/// The ecosystem's global graph and sources with only the v1 wrapper of
/// each source registered — later versions are released during the run.
fn base_mdm(eco: &SyntheticEcosystem) -> Mdm {
    let mut mdm = Mdm::new();
    for c in 0..eco.config.concepts {
        let concept = concept_iri(c);
        mdm.define_concept(&concept).unwrap();
        for attribute in eco.concept_attributes(c) {
            let feature = feature_iri(c, &attribute);
            if attribute == "id" {
                mdm.define_identifier(&concept, &feature).unwrap();
            } else {
                mdm.define_feature(&concept, &feature).unwrap();
            }
        }
    }
    for c in 0..eco.config.concepts.saturating_sub(1) {
        mdm.define_relation(
            &concept_iri(c),
            &mdm_core::synthetic::relation_iri(c),
            &concept_iri(c + 1),
        )
        .unwrap();
    }
    for source in &eco.sources {
        mdm.add_source(source.source.endpoint.name()).unwrap();
        register_synthetic_wrapper(&mut mdm, eco, source.concept, source.wrappers[0].clone())
            .unwrap();
    }
    mdm
}

struct CellResult {
    hit_rate: f64,
    full_rewrites: u64,
    incremental_extensions: u64,
    p50_us: f64,
    p99_us: f64,
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[rank] as f64
}

/// One churn cell: warm the hot walks, then alternate releases over
/// `churned` sources with replays of every hot walk, timing each
/// `rewrite_cached`. The hit rate covers only the post-warm-up window.
fn run_cell(eco: &SyntheticEcosystem, churned: &[usize], rounds: usize) -> CellResult {
    let mut mdm = base_mdm(eco);
    for k in 1..=HOT_WALKS {
        mdm.rewrite_cached(&chain_walk(eco, k)).unwrap();
    }
    let warm = mdm.cache_stats();

    let mut next_version = vec![1usize; eco.config.concepts];
    let mut latencies_us: Vec<u64> = Vec::with_capacity(rounds * HOT_WALKS);
    for round in 0..rounds {
        let c = churned[round % churned.len()];
        let wrapper = eco.sources[c].wrappers[next_version[c]].clone();
        next_version[c] += 1;
        register_synthetic_wrapper(&mut mdm, eco, c, wrapper).unwrap();
        for k in 1..=HOT_WALKS {
            let walk = chain_walk(eco, k);
            let started = Instant::now();
            let served = mdm.rewrite_cached(&walk).unwrap();
            latencies_us.push(started.elapsed().as_micros() as u64);
            // No stale unions, ever: whatever the cache served matches a
            // cold rewrite at this very epoch.
            assert_eq!(
                format!("{:?}", *served),
                format!("{:?}", mdm.rewrite(&walk).unwrap()),
                "cached plan diverged from cold rewrite (round {round}, k {k})"
            );
        }
    }

    let stats = mdm.cache_stats();
    let hits = stats.hits - warm.hits;
    let misses = stats.misses - warm.misses;
    latencies_us.sort_unstable();
    CellResult {
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        full_rewrites: stats.full_rewrites,
        incremental_extensions: stats.incremental_extensions,
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
    }
}

fn report(cell: &str, r: &CellResult) {
    println!(
        "{cell:<9} {:>8.3} {:>9} {:>11} {:>9.1} {:>9.1}",
        r.hit_rate, r.full_rewrites, r.incremental_extensions, r.p50_us, r.p99_us
    );
}

/// Insert+evict and hot-lookup throughput of the plan cache at the default
/// capacity 256, where each insert's victim scan visits every entry.
fn lru_micro_bench(eco: &SyntheticEcosystem) {
    let mdm = base_mdm(eco);
    let (plan, artifacts) = rewrite_walk_with_artifacts(
        mdm.ontology(),
        &chain_walk(eco, 2),
        &RewriteOptions::default(),
    )
    .unwrap();
    let (plan, artifacts) = (Arc::new(plan), Arc::new(artifacts));
    let cache = PlanCache::new(256);
    const INSERTS: usize = 50_000;
    let started = Instant::now();
    for i in 0..INSERTS {
        cache.insert(
            format!("walk-{i}"),
            1,
            Arc::clone(&plan),
            Arc::clone(&artifacts),
            false,
        );
    }
    let insert_ns = started.elapsed().as_nanos() as f64 / INSERTS as f64;
    let evictions = cache.stats().evictions;
    assert_eq!(evictions as usize, INSERTS - 256, "steady-state eviction");

    const LOOKUPS: usize = 200_000;
    let hot = format!("walk-{}", INSERTS - 1);
    let started = Instant::now();
    for _ in 0..LOOKUPS {
        assert!(matches!(cache.lookup(&hot, 1), Found::Hit(..)));
    }
    let lookup_ns = started.elapsed().as_nanos() as f64 / LOOKUPS as f64;
    println!(
        "lru@256: insert+evict {insert_ns:.0} ns/op ({INSERTS} inserts), hot lookup {lookup_ns:.0} ns/op"
    );
}

fn main() {
    // `cargo bench` passes harness flags; a bare `--list` must not hang.
    if std::env::args().any(|a| a == "--list") {
        println!("evolution_churn_p15: bench");
        return;
    }

    println!(
        "P15: {CONCEPTS}-concept chain, {ROUNDS} releases/cell, hot walks k=1..={HOT_WALKS}, \
         rewrite_cached latency per replay"
    );
    println!(
        "{:<9} {:>8} {:>9} {:>11} {:>9} {:>9}",
        "cell", "hit_rate", "full_rw", "incr_ext", "p50_us", "p99_us"
    );

    let eco = ecosystem();

    // Disjoint: releases over sources 5 and 6 (mappings reach 6 and 7) —
    // a gap of ≥ 2 from the hot walks' {C0, C1, C2}.
    let disjoint = run_cell(&eco, &[5, 6], ROUNDS);
    report("disjoint", &disjoint);
    assert!(
        disjoint.hit_rate >= 0.95,
        "disjoint plans must stay hot (hit rate {})",
        disjoint.hit_rate
    );

    // Overlap: mapping-only releases over source 1, which the k≥2 hot
    // walks read — repaired by incremental extension. Half the rounds: one
    // source's version supply feeds the whole cell.
    let overlap = run_cell(&eco, &[1], ROUNDS / 2);
    report("overlap", &overlap);
    assert!(
        overlap.incremental_extensions > 0,
        "overlapping mapping releases must extend incrementally"
    );
    assert_eq!(
        overlap.full_rewrites, HOT_WALKS as u64,
        "extension must avoid full rewrites beyond the warm-up"
    );

    lru_micro_bench(&eco);
}
