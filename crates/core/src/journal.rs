//! Journalled steward mutations: the replayable unit of the durable store.
//!
//! Every steward mutation is one [`MutationOp`] — a small, self-contained
//! value that encodes to a compact binary payload for the write-ahead log
//! (`mdm-store` treats it as opaque bytes). The op is the request, not a
//! record made after the fact: the typed mutators build one, the steward
//! routes decode their bodies into one, and recovery and replicas decode
//! one from the WAL, and all of them hand it to [`crate::Mdm::apply`], the
//! only function that carries an op out. Replaying the ops recorded since
//! the last compaction on top of the generation's snapshot therefore runs
//! the code the original mutations ran and reproduces the pre-crash
//! metadata state exactly — the crash-recovery property tests assert
//! byte-identical canonical snapshots.
//!
//! Wrapper *payloads* are data, not metadata: `RegisterWrapper` journals
//! only the signature-level registration (source, name, version,
//! attributes), mirroring the long-standing snapshot/restore semantics
//! where the execution catalog is rebuilt separately.
//!
//! ## Encoding
//!
//! One tag byte, then fields in order: strings as `u32 LE` length + UTF-8
//! bytes, vectors as `u32 LE` count + elements, booleans as one byte,
//! integers little-endian. No self-description — the WAL header's format
//! version gates compatibility.

use crate::error::MdmError;
use crate::footprint::Footprint;
use crate::mapping::MappingBuilder;

/// The sink half of the storage hook: [`crate::Mdm`] hands every mutation
/// here right after applying it in memory. Implementations (the durable
/// [`crate::durable::MetaStore`], test capture sinks) are shared behind an
/// `Arc`, hence `&self` + interior mutability.
pub trait JournalSink: Send + Sync {
    /// Records one mutation stamped with the post-mutation epoch. An `Err`
    /// means durability was lost for this record (disk full, permissions);
    /// the in-memory mutation stands, and the sink is expected to surface
    /// the failure through its health reporting.
    fn record(&self, op: &MutationOp, epoch: u64) -> Result<(), String>;

    /// Flushes buffered records to stable storage (drain/shutdown path).
    fn flush(&self) -> Result<(), String> {
        Ok(())
    }
}

/// One steward mutation, in journal form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutationOp {
    DefineConcept {
        concept: String,
    },
    DefineFeature {
        concept: String,
        feature: String,
        identifier: bool,
    },
    DefineRelation {
        from: String,
        property: String,
        to: String,
    },
    DefineSubconcept {
        sub: String,
        sup: String,
    },
    AddSource {
        name: String,
    },
    RegisterWrapper {
        source: String,
        wrapper: String,
        version: u32,
        attributes: Vec<String>,
    },
    DefineMapping {
        wrapper: String,
        concepts: Vec<String>,
        features: Vec<String>,
        relations: Vec<(String, String, String)>,
        same_as: Vec<(String, String)>,
    },
    BindPrefix {
        prefix: String,
        namespace: String,
    },
    SetOptions {
        distinct: bool,
        max_branches: u64,
    },
}

const TAG_CONCEPT: u8 = 1;
const TAG_FEATURE: u8 = 2;
const TAG_RELATION: u8 = 3;
const TAG_SUBCONCEPT: u8 = 4;
const TAG_SOURCE: u8 = 5;
const TAG_WRAPPER: u8 = 6;
const TAG_MAPPING: u8 = 7;
const TAG_PREFIX: u8 = 8;
const TAG_OPTIONS: u8 = 9;

impl MutationOp {
    /// The mapping mutation a [`MappingBuilder`] describes.
    pub fn from_mapping(builder: &MappingBuilder) -> MutationOp {
        MutationOp::DefineMapping {
            wrapper: builder.wrapper.local_name().to_string(),
            concepts: builder.concepts.iter().map(|c| c.to_string()).collect(),
            features: builder.features.iter().map(|f| f.to_string()).collect(),
            relations: builder
                .relations
                .iter()
                .map(|(f, p, t)| (f.to_string(), p.to_string(), t.to_string()))
                .collect(),
            same_as: builder
                .same_as
                .iter()
                .map(|(a, f)| (a.clone(), f.to_string()))
                .collect(),
        }
    }

    /// The binary journal payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            MutationOp::DefineConcept { concept } => {
                out.push(TAG_CONCEPT);
                put_str(&mut out, concept);
            }
            MutationOp::DefineFeature {
                concept,
                feature,
                identifier,
            } => {
                out.push(TAG_FEATURE);
                put_str(&mut out, concept);
                put_str(&mut out, feature);
                out.push(u8::from(*identifier));
            }
            MutationOp::DefineRelation { from, property, to } => {
                out.push(TAG_RELATION);
                put_str(&mut out, from);
                put_str(&mut out, property);
                put_str(&mut out, to);
            }
            MutationOp::DefineSubconcept { sub, sup } => {
                out.push(TAG_SUBCONCEPT);
                put_str(&mut out, sub);
                put_str(&mut out, sup);
            }
            MutationOp::AddSource { name } => {
                out.push(TAG_SOURCE);
                put_str(&mut out, name);
            }
            MutationOp::RegisterWrapper {
                source,
                wrapper,
                version,
                attributes,
            } => {
                out.push(TAG_WRAPPER);
                put_str(&mut out, source);
                put_str(&mut out, wrapper);
                out.extend_from_slice(&version.to_le_bytes());
                put_strs(&mut out, attributes);
            }
            MutationOp::DefineMapping {
                wrapper,
                concepts,
                features,
                relations,
                same_as,
            } => {
                out.push(TAG_MAPPING);
                put_str(&mut out, wrapper);
                put_strs(&mut out, concepts);
                put_strs(&mut out, features);
                put_count(&mut out, relations.len());
                for (from, property, to) in relations {
                    put_str(&mut out, from);
                    put_str(&mut out, property);
                    put_str(&mut out, to);
                }
                put_count(&mut out, same_as.len());
                for (attribute, feature) in same_as {
                    put_str(&mut out, attribute);
                    put_str(&mut out, feature);
                }
            }
            MutationOp::BindPrefix { prefix, namespace } => {
                out.push(TAG_PREFIX);
                put_str(&mut out, prefix);
                put_str(&mut out, namespace);
            }
            MutationOp::SetOptions {
                distinct,
                max_branches,
            } => {
                out.push(TAG_OPTIONS);
                out.push(u8::from(*distinct));
                out.extend_from_slice(&max_branches.to_le_bytes());
            }
        }
        out
    }

    /// Decodes one journal payload; the inverse of [`MutationOp::encode`].
    pub fn decode(bytes: &[u8]) -> Result<MutationOp, MdmError> {
        let mut cursor = Cursor { bytes, offset: 0 };
        let tag = cursor.byte()?;
        let op = match tag {
            TAG_CONCEPT => MutationOp::DefineConcept {
                concept: cursor.string()?,
            },
            TAG_FEATURE => MutationOp::DefineFeature {
                concept: cursor.string()?,
                feature: cursor.string()?,
                identifier: cursor.byte()? != 0,
            },
            TAG_RELATION => MutationOp::DefineRelation {
                from: cursor.string()?,
                property: cursor.string()?,
                to: cursor.string()?,
            },
            TAG_SUBCONCEPT => MutationOp::DefineSubconcept {
                sub: cursor.string()?,
                sup: cursor.string()?,
            },
            TAG_SOURCE => MutationOp::AddSource {
                name: cursor.string()?,
            },
            TAG_WRAPPER => MutationOp::RegisterWrapper {
                source: cursor.string()?,
                wrapper: cursor.string()?,
                version: cursor.u32()?,
                attributes: cursor.strings()?,
            },
            TAG_MAPPING => MutationOp::DefineMapping {
                wrapper: cursor.string()?,
                concepts: cursor.strings()?,
                features: cursor.strings()?,
                relations: {
                    let count = cursor.count(3 * 4)?;
                    let mut edges = Vec::with_capacity(count);
                    for _ in 0..count {
                        edges.push((cursor.string()?, cursor.string()?, cursor.string()?));
                    }
                    edges
                },
                same_as: {
                    let count = cursor.count(2 * 4)?;
                    let mut links = Vec::with_capacity(count);
                    for _ in 0..count {
                        links.push((cursor.string()?, cursor.string()?));
                    }
                    links
                },
            },
            TAG_PREFIX => MutationOp::BindPrefix {
                prefix: cursor.string()?,
                namespace: cursor.string()?,
            },
            TAG_OPTIONS => MutationOp::SetOptions {
                distinct: cursor.byte()? != 0,
                max_branches: cursor.u64()?,
            },
            other => {
                return Err(MdmError::Repository(format!(
                    "unknown journal op tag {other}"
                )))
            }
        };
        if cursor.offset != bytes.len() {
            return Err(MdmError::Repository(format!(
                "journal op has {} trailing bytes",
                bytes.len() - cursor.offset
            )));
        }
        Ok(op)
    }

    /// The dependency footprint this mutation *writes*: which concepts and
    /// wrappers it touches. The plan cache invalidates a cached rewriting
    /// only when a mutation's footprint intersects the plan's read
    /// footprint (see [`crate::cache`]).
    ///
    /// Per-op reasoning:
    /// * graph definitions touch the concepts they name (a relation or
    ///   taxonomy edge touches both endpoints);
    /// * `AddSource` creates a source node no rewriting ever reads — empty;
    /// * `RegisterWrapper` touches only the (necessarily fresh — duplicate
    ///   names are rejected) wrapper name: an unmapped wrapper is invisible
    ///   to rewriting, so this never overlaps an existing plan;
    /// * `DefineMapping` touches its wrapper plus every concept the mapping
    ///   covers (coverage is scoped to the mapping's own contour, so the
    ///   covered-concepts list bounds its effect);
    /// * prefixes flow into compacted column names and options into plan
    ///   shape, so both are global.
    pub fn footprint(&self) -> Footprint {
        let mut fp = Footprint::default();
        match self {
            MutationOp::DefineConcept { concept } => {
                fp.concepts.insert(concept.clone());
            }
            MutationOp::DefineFeature { concept, .. } => {
                fp.concepts.insert(concept.clone());
            }
            MutationOp::DefineRelation { from, to, .. } => {
                fp.concepts.insert(from.clone());
                fp.concepts.insert(to.clone());
            }
            MutationOp::DefineSubconcept { sub, sup } => {
                fp.concepts.insert(sub.clone());
                fp.concepts.insert(sup.clone());
            }
            MutationOp::AddSource { .. } => {}
            MutationOp::RegisterWrapper { wrapper, .. } => {
                fp.wrappers.insert(wrapper.clone());
            }
            MutationOp::DefineMapping {
                wrapper, concepts, ..
            } => {
                fp.wrappers.insert(wrapper.clone());
                fp.concepts.extend(concepts.iter().cloned());
            }
            MutationOp::BindPrefix { .. } | MutationOp::SetOptions { .. } => {
                fp.global = true;
            }
        }
        fp
    }

    /// True when a cached plan overlapping *only* mutations of this kind
    /// can be extended incrementally instead of rewritten from scratch.
    /// Mappings are immutable once defined (duplicates are rejected), so a
    /// `DefineMapping` strictly *adds* union branches for its covered
    /// concepts — the cache re-runs phase (b) for just those concepts and
    /// re-assembles. Every other overlapping mutation changes inputs the
    /// reusable fragments were computed from, so it forces a full rewrite.
    pub fn is_extension(&self) -> bool {
        matches!(self, MutationOp::DefineMapping { .. })
    }

    /// One-line human summary for the `/changes` feed and the CLI.
    pub fn summary(&self) -> String {
        fn local(text: &str) -> &str {
            text.rsplit(['/', '#']).next().unwrap_or(text)
        }
        match self {
            MutationOp::DefineConcept { concept } => {
                format!("concept {}", local(concept))
            }
            MutationOp::DefineFeature {
                concept,
                feature,
                identifier,
            } => format!(
                "{} {} of {}",
                if *identifier { "identifier" } else { "feature" },
                local(feature),
                local(concept)
            ),
            MutationOp::DefineRelation { from, property, to } => {
                format!(
                    "relation {} -{}-> {}",
                    local(from),
                    local(property),
                    local(to)
                )
            }
            MutationOp::DefineSubconcept { sub, sup } => {
                format!("{} subconcept of {}", local(sub), local(sup))
            }
            MutationOp::AddSource { name } => format!("source {name}"),
            MutationOp::RegisterWrapper {
                source,
                wrapper,
                version,
                attributes,
            } => format!(
                "wrapper {wrapper} v{version} over {source} ({} attributes)",
                attributes.len()
            ),
            MutationOp::DefineMapping {
                wrapper, concepts, ..
            } => format!(
                "mapping {wrapper} covering {}",
                concepts
                    .iter()
                    .map(|c| local(c))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            MutationOp::BindPrefix { prefix, namespace } => {
                format!("prefix {prefix}: <{namespace}>")
            }
            MutationOp::SetOptions {
                distinct,
                max_branches,
            } => format!("options distinct={distinct} max_branches={max_branches}"),
        }
    }

    /// A short label for logs and error contexts.
    pub fn kind(&self) -> &'static str {
        match self {
            MutationOp::DefineConcept { .. } => "define_concept",
            MutationOp::DefineFeature { .. } => "define_feature",
            MutationOp::DefineRelation { .. } => "define_relation",
            MutationOp::DefineSubconcept { .. } => "define_subconcept",
            MutationOp::AddSource { .. } => "add_source",
            MutationOp::RegisterWrapper { .. } => "register_wrapper",
            MutationOp::DefineMapping { .. } => "define_mapping",
            MutationOp::BindPrefix { .. } => "bind_prefix",
            MutationOp::SetOptions { .. } => "set_options",
        }
    }
}

fn put_str(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
}

fn put_strs(out: &mut Vec<u8>, texts: &[String]) {
    put_count(out, texts.len());
    for text in texts {
        put_str(out, text);
    }
}

fn put_count(out: &mut Vec<u8>, count: usize) {
    out.extend_from_slice(&(count as u32).to_le_bytes());
}

fn truncated() -> MdmError {
    MdmError::Repository("journal op truncated mid-field".to_string())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], MdmError> {
        if n > self.bytes.len() - self.offset {
            return Err(truncated());
        }
        let slice = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, MdmError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, MdmError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64, MdmError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// An element count, held to the bytes left in the payload: every
    /// element costs at least `min_bytes` (4 per string, for its length),
    /// so a larger count is a truncated or hostile record and is rejected
    /// before anything is allocated for it.
    fn count(&mut self, min_bytes: usize) -> Result<usize, MdmError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_bytes) > self.bytes.len() - self.offset {
            return Err(truncated());
        }
        Ok(count)
    }

    fn string(&mut self) -> Result<String, MdmError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| MdmError::Repository("journal op holds non-UTF-8 text".to_string()))
    }

    fn strings(&mut self) -> Result<Vec<String>, MdmError> {
        let count = self.count(4)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.string()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdm::Mdm;
    use mdm_rdf::term::Iri;

    fn sample_ops() -> Vec<MutationOp> {
        vec![
            MutationOp::DefineConcept {
                concept: "http://example.org/Player".into(),
            },
            MutationOp::DefineFeature {
                concept: "http://example.org/Player".into(),
                feature: "http://example.org/playerId".into(),
                identifier: true,
            },
            MutationOp::DefineRelation {
                from: "http://example.org/Player".into(),
                property: "http://example.org/hasTeam".into(),
                to: "http://schema.org/SportsTeam".into(),
            },
            MutationOp::DefineSubconcept {
                sub: "http://example.org/Goalkeeper".into(),
                sup: "http://example.org/Player".into(),
            },
            MutationOp::AddSource {
                name: "PlayersAPI".into(),
            },
            MutationOp::RegisterWrapper {
                source: "PlayersAPI".into(),
                wrapper: "w1".into(),
                version: 2,
                attributes: vec!["id".into(), "pName".into()],
            },
            MutationOp::DefineMapping {
                wrapper: "w1".into(),
                concepts: vec!["http://example.org/Player".into()],
                features: vec!["http://example.org/playerId".into()],
                relations: vec![(
                    "http://example.org/Player".into(),
                    "http://example.org/hasTeam".into(),
                    "http://schema.org/SportsTeam".into(),
                )],
                same_as: vec![("id".into(), "http://example.org/playerId".into())],
            },
            MutationOp::BindPrefix {
                prefix: "ex".into(),
                namespace: "http://example.org/".into(),
            },
            MutationOp::SetOptions {
                distinct: false,
                max_branches: 4096,
            },
        ]
    }

    #[test]
    fn every_op_round_trips_through_bytes() {
        for op in sample_ops() {
            let bytes = op.encode();
            let decoded = MutationOp::decode(&bytes).unwrap();
            assert_eq!(decoded, op, "op {:?}", op.kind());
        }
    }

    #[test]
    fn truncated_and_garbage_payloads_rejected() {
        let bytes = sample_ops()[1].encode();
        for cut in 1..bytes.len() {
            assert!(
                MutationOp::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(MutationOp::decode(&[]).is_err());
        assert!(MutationOp::decode(&[250, 0, 0]).is_err());
        // Element counts no payload of this size can hold: `Err`, not a
        // 100 GB `Vec::with_capacity` (a `RegisterWrapper` with 2³²−1
        // attributes; a `DefineMapping` with as many concepts, or edges).
        let empty = [0u8; 4];
        let huge = [0xffu8; 4];
        for (tag, prefix) in [
            (TAG_WRAPPER, vec![empty, empty, [1, 0, 0, 0]]),
            (TAG_MAPPING, vec![empty]),
            (TAG_MAPPING, vec![empty, empty, empty]),
        ] {
            let mut payload = vec![tag];
            payload.extend(prefix.iter().flatten());
            payload.extend(huge);
            let err = MutationOp::decode(&payload).unwrap_err();
            assert!(err.to_string().contains("truncated"), "{err}");
        }
        // Trailing bytes after a complete op are rejected too.
        let mut padded = bytes;
        padded.push(0);
        assert!(MutationOp::decode(&padded).is_err());
    }

    #[test]
    fn replayed_ops_rebuild_the_state() {
        let mut direct = Mdm::new();
        let player = Iri::new("http://example.org/Player");
        let id = Iri::new("http://example.org/playerId");
        direct.define_concept(&player).unwrap();
        direct.define_identifier(&player, &id).unwrap();
        direct.add_source("PlayersAPI").unwrap();

        let ops = vec![
            MutationOp::DefineConcept {
                concept: player.to_string(),
            },
            MutationOp::DefineFeature {
                concept: player.to_string(),
                feature: id.to_string(),
                identifier: true,
            },
            MutationOp::AddSource {
                name: "PlayersAPI".into(),
            },
        ];
        let mut replayed = Mdm::new();
        for op in &ops {
            let round_tripped = MutationOp::decode(&op.encode()).unwrap();
            replayed.apply(&round_tripped).unwrap();
        }
        assert_eq!(replayed.snapshot(), direct.snapshot());
        assert_eq!(replayed.epoch(), direct.epoch());
    }
}
