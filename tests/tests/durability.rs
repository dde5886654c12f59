//! Crash-recovery suite for the durable metadata store (`mdm-store` +
//! `mdm_core::durable`).
//!
//! The central property: for ANY interleaving of steward mutations and ANY
//! crash point — a record boundary, a torn mid-record write, or a flipped
//! bit — recovery yields a state whose canonical snapshot is **byte
//! identical** to replaying the surviving prefix of the *original* ops in
//! memory, with a continuous epoch. The reference replay uses the op values
//! the test itself constructed (never bytes read back from disk), so the
//! property also proves WAL encode/decode fidelity.

use std::path::{Path, PathBuf};

use mdm_core::{FsyncPolicy, Mdm, MetaStore, MutationOp, RecoveryReport};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mdm-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ns(local: &str) -> String {
    format!("http://example.org/{local}")
}

/// Deterministically expands action codes into a VALID mutation sequence:
/// every op applies cleanly to a fresh `Mdm` in order. Codes with unmet
/// prerequisites fall back to creating them, so any byte string maps to a
/// useful script.
fn build_ops(codes: &[u8]) -> Vec<MutationOp> {
    // (concept, identifier, extra features)
    let mut concepts: Vec<(String, String, Vec<String>)> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    // (wrapper, concept index) not yet mapped
    let mut unmapped: Vec<(String, usize)> = Vec::new();
    let mut ops = Vec::new();
    let mut serial = 0usize;
    let mut fresh = || {
        serial += 1;
        serial
    };

    for &code in codes {
        match code % 9 {
            // New concept with its identifier (mappings need one).
            0 => {
                let n = fresh();
                let concept = ns(&format!("C{n}"));
                let id = ns(&format!("C{n}_id"));
                ops.push(MutationOp::DefineConcept {
                    concept: concept.clone(),
                });
                ops.push(MutationOp::DefineFeature {
                    concept: concept.clone(),
                    feature: id.clone(),
                    identifier: true,
                });
                concepts.push((concept, id, Vec::new()));
            }
            // New feature on an existing concept.
            1 => {
                if concepts.is_empty() {
                    continue;
                }
                let index = code as usize % concepts.len();
                let n = fresh();
                let feature = ns(&format!("f{n}"));
                ops.push(MutationOp::DefineFeature {
                    concept: concepts[index].0.clone(),
                    feature: feature.clone(),
                    identifier: false,
                });
                concepts[index].2.push(feature);
            }
            // New source.
            2 => {
                let name = format!("S{}", fresh());
                ops.push(MutationOp::AddSource { name: name.clone() });
                sources.push(name);
            }
            // Register a wrapper over the last source.
            3 => {
                if sources.is_empty() || concepts.is_empty() {
                    continue;
                }
                let wrapper = format!("w{}", fresh());
                ops.push(MutationOp::RegisterWrapper {
                    source: sources.last().unwrap().clone(),
                    wrapper: wrapper.clone(),
                    version: (code as u32 % 3) + 1,
                    attributes: vec!["id".into(), "v".into()],
                });
                unmapped.push((wrapper, code as usize % concepts.len()));
            }
            // Map the oldest unmapped wrapper onto its concept.
            4 => {
                let Some((wrapper, concept_index)) = unmapped.first().cloned() else {
                    continue;
                };
                let (concept, id, extras) = &mut concepts[concept_index];
                if extras.is_empty() {
                    // The 'v' attribute needs a non-identifier feature.
                    let feature = ns(&format!("f{}", fresh()));
                    ops.push(MutationOp::DefineFeature {
                        concept: concept.clone(),
                        feature: feature.clone(),
                        identifier: false,
                    });
                    extras.push(feature);
                }
                ops.push(MutationOp::DefineMapping {
                    wrapper,
                    concepts: vec![concept.clone()],
                    features: vec![id.clone(), extras[0].clone()],
                    relations: Vec::new(),
                    same_as: vec![("id".into(), id.clone()), ("v".into(), extras[0].clone())],
                });
                unmapped.remove(0);
            }
            // Relation between two concepts.
            5 => {
                if concepts.len() < 2 {
                    continue;
                }
                let from = code as usize % concepts.len();
                let to = (from + 1) % concepts.len();
                ops.push(MutationOp::DefineRelation {
                    from: concepts[from].0.clone(),
                    property: ns(&format!("rel{}", fresh())),
                    to: concepts[to].0.clone(),
                });
            }
            // New subconcept under an existing concept. Identifiers are
            // inherited through the taxonomy, so the sub reuses sup's.
            6 => {
                if concepts.is_empty() {
                    continue;
                }
                let sup = code as usize % concepts.len();
                let sub = ns(&format!("Sub{}", fresh()));
                ops.push(MutationOp::DefineConcept {
                    concept: sub.clone(),
                });
                ops.push(MutationOp::DefineSubconcept {
                    sub: sub.clone(),
                    sup: concepts[sup].0.clone(),
                });
                let inherited_id = concepts[sup].1.clone();
                concepts.push((sub, inherited_id, Vec::new()));
            }
            // Bind a rendering prefix.
            7 => {
                let n = fresh();
                ops.push(MutationOp::BindPrefix {
                    prefix: format!("p{n}"),
                    namespace: format!("http://example.org/ns{n}#"),
                });
            }
            // Toggle rewriting options.
            _ => {
                ops.push(MutationOp::SetOptions {
                    distinct: code % 2 == 0,
                    max_branches: 4096,
                });
            }
        }
    }
    if ops.is_empty() {
        // Skipped codes can leave nothing; anchor with one concept so
        // every script exercises the journal.
        ops.push(MutationOp::DefineConcept {
            concept: ns("Anchor"),
        });
    }
    ops
}

/// Replays `ops` against a fresh in-memory system — the reference state.
fn reference(ops: &[MutationOp]) -> Mdm {
    let mut mdm = Mdm::new();
    for op in ops {
        mdm.apply(op).unwrap();
    }
    mdm
}

/// Creates a store in `dir` and applies `ops` through the journalling
/// facade, then drops everything without compaction — the on-disk WAL now
/// holds one record per op.
fn run_with_store(dir: &Path, ops: &[MutationOp]) {
    let (meta, mut mdm, report) = MetaStore::attach(dir, FsyncPolicy::Always, Mdm::new()).unwrap();
    assert!(!report.recovered);
    for op in ops {
        mdm.apply(op).unwrap();
    }
    assert_eq!(meta.stats().wal_records, ops.len() as u64);
    drop((meta, mdm)); // kill -9: no shutdown hook runs, the WAL is as-is
}

fn recover(dir: &Path) -> (Mdm, RecoveryReport) {
    let (_meta, mdm, report) = MetaStore::attach(dir, FsyncPolicy::Always, Mdm::new()).unwrap();
    (mdm, report)
}

fn live_wal(dir: &Path) -> PathBuf {
    // CURRENT holds "generation term term_start_epoch" (the fencing term
    // rides along since the failover work); the WAL is named by the first.
    let current = std::fs::read_to_string(dir.join("CURRENT")).unwrap();
    let generation: u64 = current
        .split_whitespace()
        .next()
        .expect("CURRENT names a generation")
        .parse()
        .unwrap();
    dir.join(format!("wal.gen-{generation}.log"))
}

const WAL_HEADER_BYTES: u64 = 28;

/// The recovered state must equal the in-memory replay of the first
/// `report.replayed` ORIGINAL ops — byte-identical snapshot, equal epoch.
fn assert_prefix_equivalence(recovered: &Mdm, report: &RecoveryReport, ops: &[MutationOp]) {
    let survived = report.replayed as usize;
    assert!(survived <= ops.len(), "{survived} > {}", ops.len());
    let expected = reference(&ops[..survived]);
    assert_eq!(
        recovered.snapshot(),
        expected.snapshot(),
        "snapshot diverges after replaying {survived}/{} ops",
        ops.len()
    );
    assert_eq!(recovered.epoch(), expected.epoch(), "epoch diverges");
}

// ---------------------------------------------------------------------
// Deterministic crash tests
// ---------------------------------------------------------------------

/// A canonical 20-action script covering every op kind.
fn sample_codes() -> Vec<u8> {
    vec![0, 1, 2, 3, 4, 0, 5, 6, 7, 8, 1, 2, 3, 4, 5, 1, 3, 4, 7, 8]
}

#[test]
fn clean_restart_replays_everything() {
    let dir = temp_dir("clean");
    let ops = build_ops(&sample_codes());
    run_with_store(&dir, &ops);
    let (recovered, report) = recover(&dir);
    assert_eq!(report.replayed as usize, ops.len());
    assert!(!report.truncated_tail);
    assert_prefix_equivalence(&recovered, &report, &ops);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn epoch_continues_across_crash_and_recovery() {
    let dir = temp_dir("epoch");
    let ops = build_ops(&sample_codes());
    run_with_store(&dir, &ops);

    let (_meta, mut recovered, report) =
        MetaStore::attach(&dir, FsyncPolicy::Always, Mdm::new()).unwrap();
    assert_eq!(
        recovered.epoch(),
        report.replayed,
        "one epoch per op from 0"
    );
    // The next mutation continues the sequence — no silent reset to 0.
    let before = recovered.epoch();
    recovered
        .define_concept(&mdm_rdf::term::Iri::new(ns("AfterCrash").as_str()))
        .unwrap();
    assert_eq!(recovered.epoch(), before + 1);
    drop((_meta, recovered));

    // And that post-recovery mutation is itself journalled + recoverable.
    let (after, report) = recover(&dir);
    assert_eq!(report.replayed, before + 1);
    assert_eq!(after.epoch(), before + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_mid_record_is_truncated_not_fatal() {
    let dir = temp_dir("torn");
    let ops = build_ops(&sample_codes());
    run_with_store(&dir, &ops);
    let wal = live_wal(&dir);
    let len = std::fs::metadata(&wal).unwrap().len();
    // Cut 5 bytes — guaranteed mid-record (record headers alone are 16B).
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    let (recovered, report) = recover(&dir);
    assert!(report.truncated_tail);
    assert_eq!(report.replayed as usize, ops.len() - 1);
    assert_prefix_equivalence(&recovered, &report, &ops);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_after_compaction_replays_only_the_new_wal() {
    let dir = temp_dir("postcompact");
    let ops = build_ops(&sample_codes());
    let split = ops.len() / 2;

    let (meta, mut mdm, _) = MetaStore::attach(&dir, FsyncPolicy::Always, Mdm::new()).unwrap();
    for op in &ops[..split] {
        mdm.apply(op).unwrap();
    }
    meta.compact(&mdm).unwrap();
    for op in &ops[split..] {
        mdm.apply(op).unwrap();
    }
    assert_eq!(meta.stats().wal_records as usize, ops.len() - split);
    let expected_snapshot = mdm.snapshot();
    let expected_epoch = mdm.epoch();
    drop((meta, mdm));

    let (recovered, report) = recover(&dir);
    assert_eq!(report.generation, 2);
    assert_eq!(report.base_epoch as usize, split);
    assert_eq!(report.replayed as usize, ops.len() - split);
    assert_eq!(recovered.snapshot(), expected_snapshot);
    assert_eq!(recovered.epoch(), expected_epoch);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery's changefeed starts at the snapshot it restored: the mutations
/// folded into the snapshot have no record, so a cursor below it is told it
/// is truncated, and a cursor at it gets exactly the replayed records.
#[test]
fn recovered_changefeed_starts_at_its_snapshot() {
    let dir = temp_dir("horizon");
    let concept = |name: &str| mdm_rdf::term::Iri::new(ns(name).as_str());
    let mut seeded = Mdm::new();
    for name in ["A", "B", "C"] {
        seeded.define_concept(&concept(name)).unwrap();
    }
    let (meta, mut mdm, _) = MetaStore::attach(&dir, FsyncPolicy::Never, seeded).unwrap();
    for name in ["D", "E"] {
        mdm.define_concept(&concept(name)).unwrap();
    }
    drop((meta, mdm));

    let (recovered, report) = recover(&dir);
    assert_eq!((report.base_epoch, report.replayed), (3, 2));
    let feed = |since| {
        let (records, truncated) = recovered.changes_since(since, 10);
        (
            records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            truncated,
        )
    };
    assert_eq!(feed(0), (vec![4, 5], true), "epochs 1-3 have no record");
    assert_eq!(feed(2), (vec![4, 5], true));
    assert_eq!(feed(3), (vec![4, 5], false));
    assert_eq!(feed(5), (vec![], false));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Property tests: crash anywhere, flip anything
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating the WAL at ANY byte (record boundary or mid-record)
    /// recovers exactly the surviving prefix of the original mutations.
    #[test]
    fn crash_at_any_byte_recovers_the_surviving_prefix(
        codes in proptest::collection::vec(0u8..=255, 1..32),
        cut_permille in 0u64..=1000,
    ) {
        let ops = build_ops(&codes);
        let dir = temp_dir("prop-cut");
        run_with_store(&dir, &ops);

        let wal = live_wal(&dir);
        let len = std::fs::metadata(&wal).unwrap().len();
        let payload = len - WAL_HEADER_BYTES;
        let cut = WAL_HEADER_BYTES + payload * cut_permille / 1000;
        let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let (recovered, report) = recover(&dir);
        let survived = report.replayed as usize;
        prop_assert!(survived <= ops.len());
        if cut < len {
            prop_assert!(survived < ops.len() || report.truncated_tail);
        }
        let expected = reference(&ops[..survived]);
        prop_assert_eq!(recovered.snapshot(), expected.snapshot());
        prop_assert_eq!(recovered.epoch(), expected.epoch());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping ANY byte of the WAL body makes recovery stop at (or before)
    /// the corrupt record — never crash, never replay garbage.
    #[test]
    fn bit_flip_anywhere_truncates_to_a_valid_prefix(
        codes in proptest::collection::vec(0u8..=255, 1..24),
        flip_permille in 0u64..1000,
        flip_bit in 0u8..8,
    ) {
        let ops = build_ops(&codes);
        let dir = temp_dir("prop-flip");
        run_with_store(&dir, &ops);

        let wal = live_wal(&dir);
        let mut bytes = std::fs::read(&wal).unwrap();
        let body = bytes.len() - WAL_HEADER_BYTES as usize;
        let position = WAL_HEADER_BYTES as usize + body * flip_permille as usize / 1000;
        let position = position.min(bytes.len() - 1);
        bytes[position] ^= 1 << flip_bit;
        std::fs::write(&wal, &bytes).unwrap();

        let (recovered, report) = recover(&dir);
        let survived = report.replayed as usize;
        prop_assert!(survived < ops.len(), "corrupt record must not replay");
        let expected = reference(&ops[..survived]);
        prop_assert_eq!(recovered.snapshot(), expected.snapshot());
        prop_assert_eq!(recovered.epoch(), expected.epoch());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// The durable server: restart, metrics, compaction over HTTP
// ---------------------------------------------------------------------

#[test]
fn server_restart_over_same_data_dir_preserves_acknowledged_mutations() {
    use mdm_dataform::{json, Value};
    use mdm_server::{client, serve, ServerConfig};

    fn get(addr: std::net::SocketAddr, path: &str) -> Value {
        let response = client::get(addr, path).unwrap();
        assert_eq!(response.status, 200, "GET {path}: {}", response.body);
        json::parse(&response.body).expect("response is JSON")
    }
    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> Value {
        let response = client::post_json(addr, path, body).unwrap();
        assert_eq!(response.status, 200, "POST {path}: {}", response.body);
        json::parse(&response.body).expect("response is JSON")
    }
    fn int_of(value: &Value, field: &str) -> i64 {
        value
            .get(field)
            .and_then(Value::as_number)
            .and_then(|n| n.as_i64())
            .unwrap_or_else(|| panic!("missing numeric '{field}' in {value:?}"))
    }

    let dir = temp_dir("server");
    let config = || ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // First server life: steward a concept + a source over HTTP.
    let server = serve(config(), Mdm::new()).unwrap();
    let addr = server.addr();
    post(
        addr,
        "/steward/concepts",
        r#"{"concept": "<http://example.org/Player>"}"#,
    );
    post(addr, "/steward/sources", r#"{"name": "PlayersAPI"}"#);
    let metrics = get(addr, "/metrics");
    let journal = metrics.get("journal").expect("journal metrics present");
    assert_eq!(int_of(journal, "wal_records"), 2);
    assert_eq!(
        journal.get("fsync_policy").and_then(Value::as_str),
        Some("always")
    );
    let health = get(addr, "/healthz");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    server.shutdown(); // graceful drain: flush + fsync

    // Second life: the journal replays, the epoch continues.
    let server = serve(config(), Mdm::new()).unwrap();
    let addr = server.addr();
    let health = get(addr, "/healthz");
    assert_eq!(int_of(&health, "epoch"), 2, "both mutations survived");

    // Compact over HTTP: generation advances, the WAL resets.
    let compacted = post(addr, "/admin/compact", "{}");
    assert_eq!(int_of(&compacted, "generation"), 2);
    assert_eq!(int_of(&compacted, "epoch"), 2, "compaction keeps the epoch");
    let metrics = get(addr, "/metrics");
    let journal = metrics.get("journal").expect("journal metrics present");
    assert_eq!(int_of(journal, "wal_records"), 0);
    assert_eq!(int_of(journal, "last_compaction_gen"), 2);

    // Third life: recovery starts from the compacted generation with the
    // exact same published snapshot.
    let snapshot_before = get(addr, "/steward/snapshot");
    server.shutdown();
    let server = serve(config(), Mdm::new()).unwrap();
    let snapshot_after = get(server.addr(), "/steward/snapshot");
    assert_eq!(
        snapshot_before.get("snapshot").and_then(Value::as_str),
        snapshot_after.get("snapshot").and_then(Value::as_str)
    );
    assert_eq!(
        int_of(&snapshot_before, "epoch"),
        int_of(&snapshot_after, "epoch")
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_without_data_dir_is_a_clean_409() {
    use mdm_server::{client, serve, ServerConfig};
    let server = serve(ServerConfig::default(), Mdm::new()).unwrap();
    let response = client::post_json(server.addr(), "/admin/compact", "{}").unwrap();
    assert_eq!(response.status, 409, "{}", response.body);
    assert!(response.body.contains("compact"), "{}", response.body);
    server.shutdown();
}

/// The rewrite options cross every snapshot boundary: WAL replay,
/// compaction + re-attach (no record left to replay), and `restored_from`
/// (the restore route and a replica's snapshot bootstrap). With
/// `max_branches: 3` the Figure 8 walk over football + Players v2 (four
/// branches) must keep being refused.
#[test]
fn rewrite_options_survive_compaction_and_restore() {
    use mdm_core::{usecase, RewriteOptions};
    use mdm_wrappers::football;

    let eco = football::build_default();
    let mut initial = usecase::football_mdm(&eco).unwrap();
    usecase::register_players_v2(&mut initial, &eco).unwrap();
    let walk = usecase::figure8_walk();
    assert_eq!(initial.rewrite(&walk).unwrap().branch_count(), 4);

    let dir = temp_dir("options");
    let (meta, mut mdm, _) = MetaStore::attach(&dir, FsyncPolicy::Never, initial).unwrap();
    mdm.set_options(RewriteOptions {
        distinct: false,
        max_branches: 3,
    });
    assert!(mdm.rewrite(&walk).is_err(), "4 branches > 3");
    drop((meta, mdm));

    let (meta, mdm, report) = MetaStore::attach(&dir, FsyncPolicy::Never, Mdm::new()).unwrap();
    assert_eq!(report.replayed, 1);
    assert!(mdm.rewrite(&walk).is_err(), "after WAL replay");
    meta.compact(&mdm).unwrap();
    let snapshot = mdm.snapshot();
    drop((meta, mdm));

    let (_meta, mdm, report) = MetaStore::attach(&dir, FsyncPolicy::Never, Mdm::new()).unwrap();
    assert_eq!(report.replayed, 0);
    assert!(mdm.rewrite(&walk).is_err(), "after compaction");
    assert_eq!(mdm.snapshot(), snapshot, "the options line round-trips");
    let restored = Mdm::new().restored_from(&snapshot).unwrap();
    assert!(restored.rewrite(&walk).is_err(), "after restored_from");
    let _ = std::fs::remove_dir_all(&dir);
}
