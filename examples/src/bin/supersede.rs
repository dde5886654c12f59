//! A SUPERSEDE-style scenario: a larger ecosystem of evolving sources.
//!
//! The paper's second on-site demo was the SUPERSEDE project — "a
//! real-world scenario of Big Data integration under schema evolution" with
//! tens of sources and many releases. This example builds a synthetic
//! ecosystem of that shape (8 chained concepts, 3 schema versions per
//! source), registers everything through the steward API, and runs walks of
//! increasing span while the sources keep evolving underneath.
//!
//! Run with: `cargo run -p mdm-examples --bin supersede`

use mdm_core::rewrite::plan_for_cq;
use mdm_core::synthetic::{self, chain_walk};
use mdm_relational::resilience::Deadline;
use mdm_wrappers::workload::{build, evolve_all, WorkloadConfig};

fn main() {
    let config = WorkloadConfig {
        concepts: 8,
        features_per_concept: 4,
        versions_per_source: 3,
        rows_per_wrapper: 200,
        seed: 644018, // the SUPERSEDE grant agreement number
    };
    println!(
        "building ecosystem: {} sources × {} versions × {} rows",
        config.concepts, config.versions_per_source, config.rows_per_wrapper
    );
    let mut eco = build(&config);
    let mut mdm = synthetic::mdm_from_synthetic(&eco).expect("ecosystem registers");
    // This ecosystem's unions grow as 3^span; raise the enumeration guard
    // for the wider walks (the default 1024 refuses span ≥ 4).
    mdm.set_options(mdm_core::RewriteOptions {
        max_branches: 100_000,
        ..mdm_core::RewriteOptions::default()
    });
    println!(
        "registered {} wrappers over {} sources\n",
        mdm.catalog().len(),
        config.concepts
    );

    println!("=== walks of increasing span ===");
    println!(
        "{:>5} {:>9} {:>8} {:>10}",
        "span", "branches", "rows", "plan nodes"
    );
    for k in 1..=config.concepts.min(5) {
        let walk = chain_walk(&eco, k);
        match mdm.query_degraded(&walk, Deadline::none()) {
            Ok(answer) => {
                let rewriting = &answer.rewriting;
                // Operators over every branch plan, as the rewriting
                // derives them.
                let nodes: usize = rewriting
                    .queries
                    .iter()
                    .map(|cq| {
                        plan_for_cq(cq, &rewriting.output_columns)
                            .map_or(0, |plan| plan.node_count())
                    })
                    .sum();
                println!(
                    "{k:>5} {:>9} {:>8} {nodes:>10}",
                    rewriting.branch_count(),
                    answer.rows.len()
                )
            }
            Err(e) => println!("{k:>5}  failed: {e}"),
        }
    }

    println!("\n=== continued evolution ===");
    let log = evolve_all(&mut eco, 6, 99);
    for (source, change) in &log {
        println!("  Source{source}: {change}");
    }
    // Rebuild the system with the grown ecosystem (in production this is an
    // incremental steward action; the facade re-registration shows the same
    // metadata path).
    let mdm = synthetic::mdm_from_synthetic(&eco).expect("evolved ecosystem registers");
    println!(
        "\nafter evolution: {} wrappers registered",
        mdm.catalog().len()
    );
    let walk = chain_walk(&eco, 3);
    let answer = mdm.query(&walk).expect("post-evolution walk answers");
    println!(
        "span-3 walk now rewrites to {} branches and still returns {} rows",
        answer.rewriting.branch_count(),
        answer.table.len()
    );
}
