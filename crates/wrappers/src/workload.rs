//! Parameterised synthetic ecosystems for the scaling benches.
//!
//! The demo paper reports no performance numbers; the benches (P1–P6 in
//! DESIGN.md) need controllable workloads: `N` concepts in a chain, each
//! populated by one source with `M` wrapper versions of `R` rows. Field
//! naming is positional (`c0_f1`, …) so `mdm-core` test/bench helpers can
//! build the matching ontology mechanically.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::evolution::{random_change, ChangeKind, EvolvingSource, FieldType, SchemaSpec};
use crate::rest::Release;
use crate::wrapper::{Signature, Wrapper};

/// Workload sizing.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of concepts (sources) in the chain.
    pub concepts: usize,
    /// Non-key features per concept.
    pub features_per_concept: usize,
    /// Schema versions (wrappers) per source.
    pub versions_per_source: usize,
    /// Rows per wrapper payload.
    pub rows_per_wrapper: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            concepts: 3,
            features_per_concept: 3,
            versions_per_source: 2,
            rows_per_wrapper: 100,
            seed: 7,
        }
    }
}

/// One synthetic source: its evolving endpoint and the wrappers the steward
/// registered, one per version, all re-exposing the *original* attribute
/// names (the steward re-binds after each release, as MDM prescribes).
#[derive(Clone, Debug)]
pub struct SyntheticSource {
    /// Concept index this source populates.
    pub concept: usize,
    pub source: EvolvingSource,
    pub wrappers: Vec<Wrapper>,
}

/// The generated ecosystem.
#[derive(Clone, Debug)]
pub struct SyntheticEcosystem {
    pub config: WorkloadConfig,
    pub sources: Vec<SyntheticSource>,
}

impl SyntheticEcosystem {
    /// All wrappers across all sources.
    pub fn all_wrappers(&self) -> impl Iterator<Item = &Wrapper> {
        self.sources.iter().flat_map(|s| s.wrappers.iter())
    }

    /// The canonical attribute names of concept `c`: `id`, then
    /// `c{c}_f{j}`, then (except for the last concept) the foreign key
    /// `c{c}_next` pointing at concept `c+1`.
    pub fn concept_attributes(&self, concept: usize) -> Vec<String> {
        let mut names = vec!["id".to_string()];
        for j in 0..self.config.features_per_concept {
            names.push(format!("c{concept}_f{j}"));
        }
        if concept + 1 < self.config.concepts {
            names.push(format!("c{concept}_next"));
        }
        names
    }
}

/// Builds the ecosystem: a chain `c0 → c1 → … → c{n-1}` where each source's
/// rows carry a foreign key into the next concept, and each source evolves
/// through `versions_per_source - 1` random changes.
pub fn build(config: &WorkloadConfig) -> SyntheticEcosystem {
    build_with_rows(config, |_| config.rows_per_wrapper)
}

/// Like [`build`], but each concept's source gets `rows(concept)` rows —
/// skewed ecosystems (a small dimension source feeding a large fact
/// source) are what make join ordering matter in the P14 bench.
pub fn build_with_rows(
    config: &WorkloadConfig,
    rows: impl Fn(usize) -> usize,
) -> SyntheticEcosystem {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sources = Vec::with_capacity(config.concepts);
    for c in 0..config.concepts {
        let mut fields: Vec<(String, FieldType)> = vec![("id".to_string(), FieldType::Int)];
        for j in 0..config.features_per_concept {
            let t = match j % 3 {
                0 => FieldType::Text,
                1 => FieldType::Int,
                _ => FieldType::Float,
            };
            fields.push((format!("c{c}_f{j}"), t));
        }
        if c + 1 < config.concepts {
            // Foreign key: equal to `id` so the chain joins row-for-row.
            fields.push((format!("c{c}_next"), FieldType::Int));
        }
        let schema = SchemaSpec::new(fields);
        let mut source = EvolvingSource::new(
            format!("Source{c}"),
            schema,
            rows(c),
            config.seed.wrapping_add(c as u64),
        );

        let mut wrappers = Vec::with_capacity(config.versions_per_source);
        wrappers.push(wrapper_for_version(&source, c, 1, config));
        for _ in 1..config.versions_per_source {
            // Apply random changes until one sticks, then re-bind.
            loop {
                let change = random_change(source.schema(), &mut rng);
                if source.evolve(change).is_ok() {
                    break;
                }
            }
            wrappers.push(wrapper_for_version(&source, c, source.version(), config));
        }
        sources.push(SyntheticSource {
            concept: c,
            source,
            wrappers,
        });
    }
    SyntheticEcosystem {
        config: config.clone(),
        sources,
    }
}

/// Builds the steward's wrapper for one version: attributes keep the
/// *canonical* (v1) names; bindings follow lineage to the current payload
/// column. Attributes whose field was removed are bound to the old column
/// name (they will read NULL — visible but non-crashing, the LAV behaviour).
fn wrapper_for_version(
    source: &EvolvingSource,
    concept: usize,
    version: u32,
    config: &WorkloadConfig,
) -> Wrapper {
    // canonical attribute -> current payload column (via lineage).
    let lineage = source.lineage();
    let mut canonical: Vec<String> = vec!["id".to_string()];
    for j in 0..config.features_per_concept {
        canonical.push(format!("c{concept}_f{j}"));
    }
    if concept + 1 < config.concepts {
        canonical.push(format!("c{concept}_next"));
    }
    let bindings: Vec<(String, String)> = canonical
        .iter()
        .map(|attribute| {
            let column = lineage
                .iter()
                .find(|(_, origin)| origin.as_deref() == Some(attribute.as_str()))
                .map(|(current, _)| current.clone())
                .unwrap_or_else(|| attribute.clone());
            (attribute.clone(), column)
        })
        .collect();
    let release: Release = source
        .endpoint
        .release(version)
        .expect("version published")
        .clone();
    Wrapper::over_release(
        Signature::new(format!("s{concept}_v{version}"), canonical.clone())
            .expect("canonical names are valid"),
        source.endpoint.name().to_string(),
        release,
        bindings,
    )
    .expect("binding per attribute")
}

/// Applies `count` further random breaking/non-breaking changes to every
/// source, returning the change log (used by the robustness bench P3).
pub fn evolve_all(
    ecosystem: &mut SyntheticEcosystem,
    count: usize,
    seed: u64,
) -> Vec<(usize, ChangeKind)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = Vec::new();
    let concepts = ecosystem.config.concepts;
    for _ in 0..count {
        let index = (rng.next_u64() as usize) % concepts;
        let synthetic = &mut ecosystem.sources[index];
        loop {
            let change = random_change(synthetic.source.schema(), &mut rng);
            if synthetic.source.evolve(change.clone()).is_ok() {
                let config = ecosystem.config.clone();
                let version = synthetic.source.version();
                synthetic.wrappers.push(wrapper_for_version(
                    &synthetic.source,
                    index,
                    version,
                    &config,
                ));
                log.push((index, change));
                break;
            }
        }
    }
    log
}

use rand::RngCore;

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_relational::RelationProvider;

    #[test]
    fn chain_is_built_to_size() {
        let eco = build(&WorkloadConfig::default());
        assert_eq!(eco.sources.len(), 3);
        for (c, source) in eco.sources.iter().enumerate() {
            assert_eq!(source.wrappers.len(), 2);
            assert_eq!(source.concept, c);
        }
        assert_eq!(eco.all_wrappers().count(), 6);
    }

    #[test]
    fn wrappers_expose_canonical_names_across_versions() {
        let eco = build(&WorkloadConfig::default());
        for source in &eco.sources {
            let expected = eco.concept_attributes(source.concept);
            for wrapper in &source.wrappers {
                assert_eq!(wrapper.signature().attributes(), &expected[..]);
            }
        }
    }

    #[test]
    fn rows_join_along_the_chain() {
        let eco = build(&WorkloadConfig {
            rows_per_wrapper: 10,
            ..WorkloadConfig::default()
        });
        // Every source's v1 wrapper produces rows whose id is 0..n and whose
        // foreign key joins position-for-position with the next concept.
        let w0 = &eco.sources[0].wrappers[0];
        let rows = w0.rows().unwrap();
        assert_eq!(rows.len(), 10);
        let schema = w0.provider_schema();
        let next = schema
            .index_of(&mdm_relational::schema::ColumnRef::bare("c0_next"))
            .unwrap();
        // Foreign keys land in the id domain of the next concept.
        for row in &rows {
            let fk = row[next].as_f64().unwrap();
            assert!((0.0..1000.0).contains(&fk));
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = build(&WorkloadConfig::default());
        let b = build(&WorkloadConfig::default());
        let body = |eco: &SyntheticEcosystem| {
            eco.sources[0]
                .source
                .endpoint
                .release(1)
                .unwrap()
                .body
                .clone()
        };
        assert_eq!(body(&a), body(&b));
    }

    #[test]
    fn evolve_all_registers_new_wrappers() {
        let mut eco = build(&WorkloadConfig::default());
        let before = eco.all_wrappers().count();
        let log = evolve_all(&mut eco, 5, 123);
        assert_eq!(log.len(), 5);
        assert_eq!(eco.all_wrappers().count(), before + 5);
    }

    #[test]
    fn last_concept_has_no_foreign_key() {
        let eco = build(&WorkloadConfig::default());
        let last = eco.config.concepts - 1;
        let names = eco.concept_attributes(last);
        assert!(!names.iter().any(|n| n.ends_with("_next")));
    }
}
