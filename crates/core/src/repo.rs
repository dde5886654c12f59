//! Snapshot and restore of the metadata state.
//!
//! The paper's stack persists metadata in Jena TDB plus a MongoDB store;
//! this module is the equivalent durability layer: the whole
//! [`BdiOntology`] serialises to one self-contained text document (three
//! Turtle/TriG sections) and restores losslessly.

use mdm_rdf::turtle;

use crate::error::MdmError;
use crate::ontology::BdiOntology;
use crate::rewrite::RewriteOptions;

const HEADER: &str = "# MDM SNAPSHOT v1";
const EPOCH_MARK: &str = "# epoch: ";
const OPTIONS_MARK: &str = "# options: ";
const GLOBAL_MARK: &str = "=== GLOBAL ===";
const SOURCE_MARK: &str = "=== SOURCE ===";
const MAPPINGS_MARK: &str = "=== MAPPINGS ===";

/// Serialises the ontology alone into a snapshot document: default
/// options, no epoch stamp.
pub fn snapshot(ontology: &BdiOntology) -> String {
    snapshot_document(ontology, &RewriteOptions::default(), None)
}

/// The snapshot of a whole [`crate::Mdm`]'s metadata: the ontology, the
/// rewrite options when they are not the default (an `# options:` header
/// line, so default documents keep their bytes) and, optionally, the
/// metadata epoch. The durable store stamps the epoch, so a restored
/// process continues the epoch sequence instead of re-issuing values
/// remote clients have already seen against different plans. Restoring
/// and re-snapshotting is a byte fixpoint either way.
pub fn snapshot_document(
    ontology: &BdiOntology,
    options: &RewriteOptions,
    epoch: Option<u64>,
) -> String {
    let prefixes = ontology.prefixes();
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    if let Some(epoch) = epoch {
        out.push_str(EPOCH_MARK);
        out.push_str(&epoch.to_string());
        out.push('\n');
    }
    if *options != RewriteOptions::default() {
        out.push_str(&format!(
            "{OPTIONS_MARK}distinct={} max_branches={}\n",
            options.distinct, options.max_branches
        ));
    }
    out.push_str(GLOBAL_MARK);
    out.push('\n');
    out.push_str(&turtle::write_graph(ontology.global_graph(), prefixes));
    out.push_str(SOURCE_MARK);
    out.push('\n');
    out.push_str(&turtle::write_graph(ontology.source_graph(), prefixes));
    out.push_str(MAPPINGS_MARK);
    out.push('\n');
    out.push_str(&turtle::write_dataset(ontology.mappings(), prefixes));
    out
}

/// Restores an ontology from a snapshot document, ignoring any epoch
/// stamp. Callers that must preserve epoch continuity (the facade, the
/// durable store) use [`restore_with_epoch`].
pub fn restore(document: &str) -> Result<BdiOntology, MdmError> {
    restore_with_epoch(document).map(|(ontology, ..)| ontology)
}

/// Restores an ontology plus the epoch recorded in the snapshot header
/// (0 for pre-epoch documents, which remain readable) and the rewrite
/// options (the default when the header names none).
pub fn restore_with_epoch(document: &str) -> Result<(BdiOntology, u64, RewriteOptions), MdmError> {
    if !document.starts_with(HEADER) {
        return Err(MdmError::Repository(format!(
            "not an MDM snapshot (expected leading '{HEADER}')"
        )));
    }
    let epoch = document
        .lines()
        .nth(1)
        .and_then(|line| line.strip_prefix(EPOCH_MARK))
        .map(|raw| {
            raw.trim()
                .parse::<u64>()
                .map_err(|_| MdmError::Repository(format!("invalid epoch stamp '{}'", raw.trim())))
        })
        .transpose()?
        .unwrap_or(0);
    let options = document
        .lines()
        .skip(1)
        .take_while(|line| line.starts_with('#'))
        .find_map(|line| line.strip_prefix(OPTIONS_MARK))
        .map(parse_options)
        .transpose()?
        .unwrap_or_default();
    let global_section = section(document, GLOBAL_MARK, SOURCE_MARK)?;
    let source_section = section(document, SOURCE_MARK, MAPPINGS_MARK)?;
    let mappings_section = document
        .split_once(MAPPINGS_MARK)
        .map(|(_, rest)| rest)
        .ok_or_else(|| MdmError::Repository(format!("missing '{MAPPINGS_MARK}'")))?;

    let (global, prefixes) = turtle::parse_graph_with_prefixes(global_section)
        .map_err(|e| MdmError::Repository(format!("global graph: {e}")))?;
    let source = turtle::parse_graph(source_section)
        .map_err(|e| MdmError::Repository(format!("source graph: {e}")))?;
    let mappings = turtle::parse_dataset(mappings_section)
        .map_err(|e| MdmError::Repository(format!("mappings: {e}")))?;

    let mut ontology = BdiOntology::new();
    // Re-bind the snapshot's prefixes (custom vocabularies the steward
    // registered) so renderings and compaction survive the round trip.
    for (prefix, namespace) in prefixes.iter() {
        ontology.bind_prefix(prefix, namespace);
    }
    for triple in global.iter() {
        ontology.global_graph_restore().insert(triple);
    }
    for triple in source.iter() {
        ontology.source_graph_mut().insert(triple);
    }
    for name in mappings.graph_names() {
        let graph = mappings.named_graph(name).expect("enumerated name");
        let target = ontology.mappings_mut().named_graph_mut(name);
        for triple in graph.iter() {
            target.insert(triple);
        }
    }
    Ok((ontology, epoch, options))
}

/// Parses an `# options:` header line's `key=value` words.
fn parse_options(raw: &str) -> Result<RewriteOptions, MdmError> {
    let invalid = || MdmError::Repository(format!("invalid options stamp '{}'", raw.trim()));
    let mut options = RewriteOptions::default();
    for word in raw.split_whitespace() {
        match word.split_once('=').ok_or_else(invalid)? {
            ("distinct", value) => options.distinct = value.parse().map_err(|_| invalid())?,
            ("max_branches", value) => {
                options.max_branches = value.parse().map_err(|_| invalid())?
            }
            _ => return Err(invalid()),
        }
    }
    Ok(options)
}

fn section<'a>(document: &'a str, from: &str, to: &str) -> Result<&'a str, MdmError> {
    let start = document
        .find(from)
        .ok_or_else(|| MdmError::Repository(format!("missing '{from}'")))?
        + from.len();
    let end = document[start..]
        .find(to)
        .ok_or_else(|| MdmError::Repository(format!("missing '{to}'")))?
        + start;
    Ok(&document[start..end])
}

impl BdiOntology {
    /// Restore-path access to the global graph (kept out of the public API;
    /// normal construction goes through the typed methods).
    pub(crate) fn global_graph_restore(&mut self) -> &mut mdm_rdf::Graph {
        // Safe: restore re-inserts triples produced by this crate.
        self.global_graph_mut_internal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evolved_ontology, ex, figure7_ontology};
    use crate::walk::Walk;

    #[test]
    fn snapshot_restores_losslessly() {
        let original = figure7_ontology();
        let document = snapshot(&original);
        let restored = restore(&document).unwrap();
        assert_eq!(restored.global_graph().len(), original.global_graph().len());
        assert_eq!(restored.source_graph().len(), original.source_graph().len());
        assert_eq!(
            restored.mappings().named_graph_count(),
            original.mappings().named_graph_count()
        );
        assert_eq!(restored.concepts(), original.concepts());
        // The restored metadata answers queries identically.
        let walk = crate::testkit::figure8_walk();
        let a = crate::rewrite::rewrite_walk(
            &original,
            &walk,
            &crate::rewrite::RewriteOptions::default(),
        )
        .unwrap();
        let b = crate::rewrite::rewrite_walk(
            &restored,
            &walk,
            &crate::rewrite::RewriteOptions::default(),
        )
        .unwrap();
        assert_eq!(a.algebra(), b.algebra());
    }

    #[test]
    fn evolved_state_round_trips() {
        let original = evolved_ontology();
        let restored = restore(&snapshot(&original)).unwrap();
        assert_eq!(restored.wrappers().len(), 3);
        // Walks over the new feature still rewrite.
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerId"))
            .feature(&ex("Player"), &ex("nationality"));
        crate::rewrite::rewrite_walk(&restored, &walk, &crate::rewrite::RewriteOptions::default())
            .unwrap();
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(restore("not a snapshot").is_err());
        assert!(restore(HEADER).is_err());
        let truncated = format!("{HEADER}\n{GLOBAL_MARK}\n");
        assert!(restore(&truncated).is_err());
    }

    #[test]
    fn epoch_stamp_round_trips_and_is_optional() {
        let original = figure7_ontology();
        let default = RewriteOptions::default();
        let stamped = snapshot_document(&original, &default, Some(42));
        let (restored, epoch, _) = restore_with_epoch(&stamped).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(restored.concepts(), original.concepts());
        // Restoring and re-snapshotting keeps the stamp byte-identical.
        assert_eq!(snapshot_document(&restored, &default, Some(epoch)), stamped);
        // Pre-epoch documents restore with epoch 0.
        let (_, epoch, _) = restore_with_epoch(&snapshot(&original)).unwrap();
        assert_eq!(epoch, 0);
        // A mangled stamp is rejected, not silently zeroed.
        let broken = stamped.replace("# epoch: 42", "# epoch: forty-two");
        assert!(restore_with_epoch(&broken).is_err());
    }

    /// Options other than the default travel in one header line, with or
    /// without an epoch stamp; the default writes none, so default
    /// documents keep their bytes.
    #[test]
    fn options_stamp_round_trips_and_is_optional() {
        let original = figure7_ontology();
        let default = RewriteOptions::default();
        assert!(!snapshot_document(&original, &default, Some(7)).contains(OPTIONS_MARK));
        assert!(!snapshot(&original).contains(OPTIONS_MARK));
        let options = RewriteOptions {
            distinct: false,
            max_branches: 3,
        };
        for epoch in [None, Some(7)] {
            let document = snapshot_document(&original, &options, epoch);
            assert!(document.contains("# options: distinct=false max_branches=3\n"));
            let (restored, restored_epoch, restored_options) =
                restore_with_epoch(&document).unwrap();
            assert_eq!(restored_epoch, epoch.unwrap_or(0));
            assert_eq!(restored_options, options);
            assert_eq!(
                snapshot_document(&restored, &restored_options, epoch),
                document
            );
            let (_, _, defaulted) = restore_with_epoch(&snapshot(&original)).unwrap();
            assert_eq!(defaulted, default);
        }
        let document = snapshot_document(&original, &options, Some(7));
        for mangled in ["distinct=no", "max_branches=-1", "depth=3", "distinct"] {
            let broken = document.replace("distinct=false", mangled);
            assert!(restore_with_epoch(&broken).is_err(), "{mangled}");
        }
    }

    #[test]
    fn snapshot_is_deterministic() {
        let a = snapshot(&figure7_ontology());
        let b = snapshot(&figure7_ontology());
        assert_eq!(a, b);
    }
}
