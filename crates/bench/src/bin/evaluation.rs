//! The evaluation harness: regenerates every figure and table of the paper
//! (E1–E8) from the running system, and reports the measured statistics of
//! the implied performance study (P1–P4 summaries; full distributions come
//! from `cargo bench`).
//!
//! Usage: `evaluation [--exp <id>]` where `<id>` ∈
//! {e1,e2,e3,e4,e5,e6,e7,e8,p1,p2,p3,p4,all}. Default: all.

use std::time::Instant;

use mdm_bench::{chain_system, versions_system};
use mdm_core::rewrite::plan_for_cq;
use mdm_core::synthetic::{chain_walk, mdm_from_synthetic};
use mdm_core::usecase;
use mdm_relational::resilience::Deadline;
use mdm_relational::Executor;
use mdm_wrappers::football;
use mdm_wrappers::workload::{build, evolve_all, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let selected = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("all")
        .to_lowercase();
    let want = |id: &str| selected == "all" || selected == id;

    let eco = football::build_default();
    let mut mdm = usecase::football_mdm(&eco).expect("use case builds");

    if want("e1") {
        banner("E1 — Figure 1: UML of the motivational use case");
        println!("{}", uml_text());
    }
    if want("e2") {
        banner("E2 — Figure 2: sample source payloads");
        let players = eco.players_api.release(1).expect("v1");
        println!("Players API ({}):", players.format);
        println!("{}\n", &players.body[..220.min(players.body.len())]);
        let teams = eco.teams_api.release(1).expect("v1");
        println!("Teams API ({}):", teams.format);
        println!("{}\n", &teams.body[..220.min(teams.body.len())]);
    }
    if want("e3") {
        banner("E3 — Figure 5: the global graph");
        println!("{}", mdm.render_global_graph());
    }
    if want("e4") {
        banner("E4 — Figure 6: the source graph");
        println!("{}", mdm.render_source_graph());
    }
    if want("e5") {
        banner("E5 — Figure 7: the LAV mappings");
        println!("{}", mdm.render_mappings());
    }
    if want("e6") {
        banner("E6 — Figure 8: OMQ → SPARQL + relational algebra");
        let rewriting = mdm.rewrite(&usecase::figure8_walk()).expect("rewrites");
        println!("-- SPARQL --\n{}\n", rewriting.sparql);
        println!("-- relational algebra --\n{}\n", rewriting.algebra());
    }
    if want("e7") {
        banner("E7 — Table 1: sample query output");
        let answer = mdm.query(&usecase::figure8_walk()).expect("answers");
        // Print the three famous rows first, as the paper samples them.
        let famous = ["Lionel Messi", "Robert Lewandowski", "Zlatan Ibrahimovic"];
        let rendered = answer.render();
        let mut lines = rendered.lines();
        println!("{}", lines.next().unwrap_or_default());
        println!("{}", lines.next().unwrap_or_default());
        for line in rendered.lines().skip(2) {
            if famous.iter().any(|f| line.contains(f)) {
                println!("{line}");
            }
        }
        println!("({} rows total under v1 wrappers)\n", answer.table.len());
    }
    if want("e8") {
        banner("E8 — §3 governance of evolution");
        let walk = usecase::figure8_walk();
        let before = mdm.query(&walk).expect("v1 answers");
        println!(
            "before release: {} branches, {} rows, Zlatan present: {}",
            before.rewriting.branch_count(),
            before.table.len(),
            before.render().contains("Zlatan Ibrahimovic"),
        );
        usecase::register_players_v2(&mut mdm, &eco).expect("v2 registers");
        let after = mdm.query(&walk).expect("v1+v2 answers");
        println!(
            "after release:  {} branches, {} rows, Zlatan present: {}",
            after.rewriting.branch_count(),
            after.table.len(),
            after.render().contains("Zlatan Ibrahimovic"),
        );
        println!(
            "algebra now spans both versions:\n{}\n",
            after.rewriting.algebra()
        );
    }

    if want("p1") {
        banner("P1 — rewriting latency vs coexisting versions (medians of 100 runs)");
        println!("{:>9} {:>10} {:>12}", "versions", "branches", "median");
        for versions in [1usize, 2, 4, 8, 16, 32, 64] {
            let system = versions_system(versions, 5);
            let rewriting = system.mdm.rewrite(&system.walk).expect("rewrites");
            let t = median_time(|| {
                let _ = system.mdm.rewrite(&system.walk).expect("rewrites");
            });
            println!(
                "{versions:>9} {:>10} {:>12}",
                rewriting.branch_count(),
                fmt_dur(t)
            );
        }
        println!();
    }
    if want("p2") {
        banner("P2 — rewriting latency vs walk size (medians of 100 runs)");
        println!("{:>9} {:>10} {:>12}", "concepts", "plan nodes", "median");
        for concepts in [1usize, 2, 4, 8, 12, 16] {
            let system = chain_system(concepts, 5);
            let rewriting = system.mdm.rewrite(&system.walk).expect("rewrites");
            let t = median_time(|| {
                let _ = system.mdm.rewrite(&system.walk).expect("rewrites");
            });
            // Operators over every branch plan (no ∪ or δ node: those are
            // the answer's merge).
            let nodes: usize = rewriting
                .queries
                .iter()
                .map(|cq| {
                    plan_for_cq(cq, &rewriting.output_columns)
                        .expect("branch plan")
                        .node_count()
                })
                .sum();
            println!("{concepts:>9} {nodes:>10} {:>12}", fmt_dur(t));
        }
        println!();
    }
    if want("p3") {
        banner("P3 — LAV vs GAV completeness under an evolution stream");
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>12}",
            "releases", "total", "lav rows", "gav rows", "gav recall"
        );
        let config = WorkloadConfig {
            concepts: 2,
            features_per_concept: 3,
            versions_per_source: 1,
            rows_per_wrapper: 100,
            seed: 7,
        };
        for releases in [0usize, 1, 2, 4, 8] {
            let mut eco = build(&config);
            evolve_all(&mut eco, releases, 99);
            let mdm = mdm_from_synthetic(&eco).expect("builds");
            // GAV frozen at v1 metadata (before the releases).
            let v1_eco = build(&config);
            let v1_mdm = mdm_from_synthetic(&v1_eco).expect("builds");
            let gav = v1_mdm.derive_gav().expect("derives");
            let walk = chain_walk(&eco, 2);
            let Ok(lav) = mdm.query(&walk) else {
                println!("{releases:>8}  rewriting refused (union-width guard)");
                continue;
            };
            let gav_rows = gav
                .rewrite(mdm.ontology(), &walk)
                .ok()
                .and_then(|(_, plan, _)| Executor::new(mdm.catalog()).run(&plan).ok())
                .map(|t| t.len());
            let lav_rows = lav.table.len();
            match gav_rows {
                Some(g) => println!(
                    "{releases:>8} {lav_rows:>10} {lav_rows:>10} {g:>10} {:>11.1}%",
                    100.0 * g as f64 / lav_rows.max(1) as f64
                ),
                None => println!(
                    "{releases:>8} {lav_rows:>10} {lav_rows:>10} {:>10} {:>12}",
                    "CRASH", "0.0%"
                ),
            }
        }
        println!("\n(lav rows is the reference: the union over all versions)\n");
    }
    if want("p4") {
        banner("P4 — served execution latency vs rows (medians of 10 runs)");
        println!("{:>9} {:>12}", "rows", "median");
        for rows in [100usize, 1_000, 10_000] {
            let system = mdm_bench::mixed_system(2, 2, rows);
            let t = median_time_n(10, || {
                let _ = system
                    .mdm
                    .query_degraded(&system.walk, Deadline::none())
                    .expect("executes");
            });
            println!("{rows:>9} {:>12}", fmt_dur(t));
        }
        println!();
    }
}

fn banner(title: &str) {
    println!("==========================================================");
    println!("{title}");
    println!("==========================================================");
}

fn median_time(f: impl FnMut()) -> std::time::Duration {
    median_time_n(100, f)
}

fn median_time_n(n: usize, mut f: impl FnMut()) -> std::time::Duration {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

fn fmt_dur(d: std::time::Duration) -> String {
    if d.as_micros() < 1000 {
        format!("{:.1}µs", d.as_nanos() as f64 / 1000.0)
    } else if d.as_millis() < 1000 {
        format!("{:.2}ms", d.as_micros() as f64 / 1000.0)
    } else {
        format!("{:.2}s", d.as_millis() as f64 / 1000.0)
    }
}

fn uml_text() -> &'static str {
    r#"
+-----------+ hasNationality +-----------+
|  Player   |--------------->|  Country  |
|-----------|                |-----------|
| playerId  |                | countryId |
| playerName|                | countryName
| height    |                +-----------+
| weight    |                      ^
| score     |                      | ofCountry
| foot      |                +-----------+
+-----------+                |  League   |
      | hasTeam              |-----------|
      v                      | leagueId  |
+-----------+   playsIn      | leagueName|
|SportsTeam |--------------->+-----------+
|-----------|
| teamId    |
| teamName  |
| shortName |
+-----------+
"#
}
