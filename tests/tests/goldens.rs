//! Golden-artifact tests: the checked-in files under `artifacts/` must match
//! what the running system regenerates. `cargo test -p mdm-integration-tests
//! --test goldens` fails when an artifact drifts; regenerate with
//! `REGENERATE_GOLDENS=1 cargo test -p mdm-integration-tests --test goldens`.

use std::path::PathBuf;

use mdm_core::usecase;
use mdm_wrappers::football;

fn artifact_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .join("artifacts")
}

fn check(name: &str, actual: &str) {
    let path = artifact_dir().join(name);
    if std::env::var("REGENERATE_GOLDENS").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with REGENERATE_GOLDENS=1"));
    assert_eq!(
        expected, actual,
        "artifact {name} drifted; regenerate with REGENERATE_GOLDENS=1"
    );
}

#[test]
fn figure5_global_graph() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    check("figure5_global_graph.txt", &mdm.render_global_graph());
}

#[test]
fn figure6_source_graph() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    check("figure6_source_graph.txt", &mdm.render_source_graph());
}

#[test]
fn figure7_lav_mappings() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    check("figure7_lav_mappings.txt", &mdm.render_mappings());
}

#[test]
fn figure8_omq() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    let rewriting = mdm.rewrite(&usecase::figure8_walk()).unwrap();
    let artifact = format!(
        "-- SPARQL --\n{}\n\n-- relational algebra --\n{}\n",
        rewriting.sparql,
        rewriting.algebra()
    );
    check("figure8_omq.txt", &artifact);
}

#[test]
fn table1_query_output() {
    let eco = football::build_default();
    let mut mdm = usecase::football_mdm(&eco).unwrap();
    usecase::register_players_v2(&mut mdm, &eco).unwrap();
    let answer = mdm.query(&usecase::figure8_walk()).unwrap();
    check("table1_query_output.txt", &answer.render());
}

#[test]
fn trace_post_evolve() {
    // The governance view after the Players v2 release: every row of the
    // Figure 8 walk tagged with the union branch (wrapper set) it came
    // from. Recorded before `trace` moved onto the served pipeline, so it
    // pins that the move changed no byte.
    let eco = football::build_default();
    let mut mdm = usecase::football_mdm(&eco).unwrap();
    usecase::register_players_v2(&mut mdm, &eco).unwrap();
    // Every execution knob of the instance applies to `trace`, and none
    // of them may change a byte.
    for (threads, batch_size) in [(1, 0), (4, 1)] {
        mdm.set_threads(threads);
        mdm.set_batch_size(batch_size);
        let answer = mdm.query_with_provenance(&usecase::figure8_walk()).unwrap();
        assert_eq!(answer.table.len(), 35);
        check("trace_post_evolve.txt", &answer.render());
    }
}

#[test]
fn metadata_snapshot() {
    let eco = football::build_default();
    let mdm = usecase::football_mdm(&eco).unwrap();
    check("metadata_snapshot.trig", &mdm.snapshot());
}
