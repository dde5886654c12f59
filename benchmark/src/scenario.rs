//! The four workloads as data: an ecosystem, the walks posed against it,
//! the steward releases that may land on it, and the operation scripts the
//! window and the traced run replay. Everything here is a pure function of
//! `(workload, seed, quick)`; the product only ever sees the result.

use mdm_core::mapping::MappingBuilder;
use mdm_core::synthetic::{chain_walk, concept_iri, feature_iri, mdm_from_synthetic, relation_iri};
use mdm_core::{usecase, walk_dsl, Mdm, MdmError, Walk};
use mdm_dataform::{json, Value};
use mdm_rdf::term::Iri;
use mdm_wrappers::evolution::{ChangeKind, EvolvingSource, FieldType, SchemaSpec};
use mdm_wrappers::football::{self, FootballEcosystem};
use mdm_wrappers::workload::{SyntheticEcosystem, SyntheticSource, WorkloadConfig};
use mdm_wrappers::{Format, Signature, Wrapper};

use crate::stats::SplitMix;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ScanJoin,
    WideResult,
    EvolutionChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ScanJoin,
        Workload::WideResult,
        Workload::EvolutionChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ScanJoin => "scan_join",
            Workload::WideResult => "wide_result",
            Workload::EvolutionChurn => "evolution_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections in the measured window. Never more
    /// than two: generator and server share this box's two cores.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeHot => 2,
            // The executor fans out over the pool itself.
            Workload::ScanJoin | Workload::WideResult => 1,
            // One connection keeps the interleaving, and so every cache
            // and WAL count, exact.
            Workload::EvolutionChurn => 1,
        }
    }
}

/// Sizes that differ between a real run and `--quick`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Rows per wrapper payload of the `scan_join`/`wide_result` ecosystem.
    pub scan_rows: usize,
    /// Script passes over HTTP before the window (fills caches, finishes
    /// lazy payload parsing); fixed so `setup_s` is comparable.
    pub warmup_passes: usize,
    /// Analyst queries in the traced script of a read workload.
    pub trace_queries: usize,
    /// Releases appended to a read workload's traced script.
    pub trace_releases: usize,
    /// Rounds of the churn script (`R`).
    pub churn_rounds: usize,
}

impl Scale {
    pub fn of(workload: Workload, quick: bool) -> Scale {
        let (warmup_passes, trace_queries) = match (workload, quick) {
            (Workload::ServeHot, false) => (2000, 5000),
            (Workload::ScanJoin, false) => (10, 60),
            (Workload::WideResult, false) => (5, 30),
            (Workload::EvolutionChurn, _) => (1, 0),
            (Workload::ServeHot, true) => (100, 200),
            (_, true) => (2, 5),
        };
        Scale {
            scan_rows: if quick { 1_000 } else { 10_000 },
            warmup_passes,
            trace_queries,
            trace_releases: if quick { 1 } else { 3 },
            churn_rounds: if quick { 4 } else { CHURN_ROUNDS },
        }
    }
}

/// `R`: tuned once so that one pass of the churn script takes about three
/// seconds on the reference box, then frozen.
pub const CHURN_ROUNDS: usize = 32;
const CHURN_CONCEPTS: usize = 8;
const CHURN_ROWS: usize = 200;
/// Hot-walk queries per churn round, cycling k = 1, 2, 3 over C0–C2.
const CHURN_HOT_QUERIES: usize = 20;
/// The k = 3 hot walk's UCQ has (versions of C1)² branches; 22² = 484 is
/// the last square under 512, half the default `max_branches`. Past it C1
/// rounds fall back to a tail source, so no round can earn a 422.
const CHURN_C1_MAX_VERSIONS: usize = 22;

/// A LAV mapping as data, so the same definition yields the HTTP body and
/// the in-process [`MappingBuilder`].
#[derive(Clone)]
pub struct MappingSpec {
    wrapper: String,
    concepts: Vec<Iri>,
    features: Vec<Iri>,
    relations: Vec<(Iri, Iri, Iri)>,
    same_as: Vec<(String, Iri)>,
}

/// One steward mutation, appliable over HTTP or in-process.
#[derive(Clone)]
pub enum StewardOp {
    Feature { concept: Iri, feature: Iri },
    Wrapper(Wrapper),
    Mapping(MappingSpec),
}

fn bracketed(iri: &Iri) -> Value {
    Value::string(format!("<{}>", iri.as_str()))
}

impl StewardOp {
    /// The route and JSON body a steward's client would send.
    pub fn request(&self) -> Request {
        let (path, body) =
            match self {
                StewardOp::Feature { concept, feature } => (
                    "/steward/features",
                    Value::object([
                        ("concept", bracketed(concept)),
                        ("feature", bracketed(feature)),
                    ]),
                ),
                StewardOp::Wrapper(wrapper) => {
                    let release = wrapper.release();
                    let format = match release.format {
                        Format::Json => "json",
                        Format::Xml => "xml",
                        Format::Csv => "csv",
                    };
                    let attributes = wrapper.signature().attributes();
                    (
                        "/steward/wrappers",
                        Value::object([
                            ("name", Value::string(wrapper.name())),
                            ("source", Value::string(wrapper.source())),
                            ("version", Value::int(i64::from(wrapper.version()))),
                            ("format", Value::string(format)),
                            ("payload", Value::string(release.body.as_str())),
                            ("notes", Value::string(release.notes.as_str())),
                            (
                                "attributes",
                                Value::array(attributes.iter().map(Value::string)),
                            ),
                            (
                                "bindings",
                                Value::object(wrapper.bindings().iter().map(|(a, column)| {
                                    (a.as_str(), Value::string(column.as_str()))
                                })),
                            ),
                        ]),
                    )
                }
                StewardOp::Mapping(spec) => (
                    "/steward/mappings",
                    Value::object([
                        ("wrapper", Value::string(spec.wrapper.as_str())),
                        (
                            "concepts",
                            Value::array(spec.concepts.iter().map(bracketed)),
                        ),
                        (
                            "features",
                            Value::array(spec.features.iter().map(bracketed)),
                        ),
                        (
                            "relations",
                            Value::array(spec.relations.iter().map(|(from, property, to)| {
                                Value::object([
                                    ("from", bracketed(from)),
                                    ("property", bracketed(property)),
                                    ("to", bracketed(to)),
                                ])
                            })),
                        ),
                        (
                            "same_as",
                            Value::array(spec.same_as.iter().map(|(attribute, feature)| {
                                Value::object([
                                    ("attribute", Value::string(attribute.as_str())),
                                    ("feature", bracketed(feature)),
                                ])
                            })),
                        ),
                    ]),
                ),
            };
        Request {
            path,
            body: json::to_string(&body),
        }
    }

    /// The same mutation through `Mdm`'s public methods. Consumes the op so
    /// that a timed caller clones the payload before the clock starts.
    pub fn apply(self, mdm: &mut Mdm) -> Result<(), MdmError> {
        match &self {
            StewardOp::Feature { concept, feature } => mdm.define_feature(concept, feature),
            StewardOp::Wrapper(_) => {
                let StewardOp::Wrapper(wrapper) = self else {
                    unreachable!("matched above")
                };
                mdm.register_wrapper(wrapper).map(|_| ())
            }
            StewardOp::Mapping(spec) => {
                let mut builder = MappingBuilder::for_wrapper(&spec.wrapper);
                for concept in &spec.concepts {
                    builder = builder.cover_concept(concept);
                }
                for feature in &spec.features {
                    builder = builder.cover_feature(feature);
                }
                for (from, property, to) in &spec.relations {
                    builder = builder.cover_relation(from, property, to);
                }
                for (attribute, feature) in &spec.same_as {
                    builder = builder.same_as(attribute, feature);
                }
                mdm.define_mapping(builder).map(|_| ())
            }
        }
    }
}

/// A `POST` the harness sends (or dispatches in-process).
pub struct Request {
    pub path: &'static str,
    pub body: String,
}

/// A steward release: the mutations that publish one new wrapper version.
pub struct Release {
    pub ops: Vec<StewardOp>,
    pub requests: Vec<Request>,
    /// The wrapper attribute the following tail walk projects, when that
    /// walk reads exactly one attribute of the released source: the answer
    /// must then contain every non-null value of it (churn only).
    pub visible_attribute: Option<usize>,
}

impl Release {
    fn new(ops: Vec<StewardOp>, visible_attribute: Option<usize>) -> Release {
        let requests = ops.iter().map(StewardOp::request).collect();
        Release {
            ops,
            requests,
            visible_attribute,
        }
    }

    /// The released wrapper.
    pub fn wrapper(&self) -> &Wrapper {
        self.ops
            .iter()
            .find_map(|op| match op {
                StewardOp::Wrapper(wrapper) => Some(wrapper),
                _ => None,
            })
            .expect("every release registers a wrapper")
    }
}

/// One step of a script: indices into [`Scenario::walks`] /
/// [`Scenario::releases`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Query(usize),
    Release(usize),
}

/// The set-up state. A synthetic chain holds only the versions registered
/// at set-up; the later ones live in [`Scenario::releases`].
enum Ecosystem {
    Football(Box<FootballEcosystem>),
    Synthetic(SyntheticEcosystem),
}

pub struct Scenario {
    pub workload: Workload,
    pub scale: Scale,
    ecosystem: Ecosystem,
    pub walks: Vec<Walk>,
    /// Each walk in the DSL, as the request carries it.
    pub walk_texts: Vec<String>,
    /// `POST /analyst/query` per walk.
    pub queries: Vec<Request>,
    pub releases: Vec<Release>,
    /// What the measured window repeats: the single query of a read
    /// workload, or the whole churn script.
    pub window: Vec<Op>,
    /// What the traced run replays once: `trace_queries` queries followed
    /// by `trace_releases` × (release, query) on a read workload; the churn
    /// script on `evolution_churn`.
    pub traced: Vec<Op>,
}

impl Scenario {
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Scenario {
        let scale = Scale::of(workload, quick);
        match workload {
            Workload::ServeHot => serve_hot(scale),
            Workload::ScanJoin | Workload::WideResult => scan(workload, scale, seed),
            Workload::EvolutionChurn => churn(scale, seed),
        }
    }

    /// A freshly built system at its set-up state. Every call returns an
    /// identical one, with cold wrappers (payloads parse on first fetch).
    pub fn build_mdm(&self) -> Mdm {
        match &self.ecosystem {
            Ecosystem::Football(eco) => usecase::football_mdm(eco).expect("football system builds"),
            Ecosystem::Synthetic(eco) => mdm_from_synthetic(eco).expect("synthetic system builds"),
        }
    }

    fn assemble(
        workload: Workload,
        scale: Scale,
        ecosystem: Ecosystem,
        walks: Vec<Walk>,
        releases: Vec<Release>,
        window: Vec<Op>,
        traced: Vec<Op>,
    ) -> Scenario {
        let mut scenario = Scenario {
            workload,
            scale,
            ecosystem,
            walks,
            walk_texts: Vec::new(),
            queries: Vec::new(),
            releases,
            window,
            traced,
        };
        // The DSL text needs the ontology's prefix map.
        let mdm = scenario.build_mdm();
        scenario.walk_texts = scenario
            .walks
            .iter()
            .map(|walk| walk_dsl::walk_to_text(walk, mdm.ontology()))
            .collect();
        scenario.queries = scenario
            .walk_texts
            .iter()
            .map(|text| Request {
                path: "/analyst/query",
                body: json::to_string(&Value::object([("walk", Value::string(text.as_str()))])),
            })
            .collect();
        scenario
    }

    /// The `POST`s that make up one step.
    pub fn requests(&self, op: Op) -> &[Request] {
        match op {
            Op::Query(walk) => std::slice::from_ref(&self.queries[walk]),
            Op::Release(release) => &self.releases[release].requests,
        }
    }

    /// Leading steps of [`Scenario::traced`] whose counts and query timings
    /// are reported; the release probe a read workload appends after them
    /// feeds only the release metrics.
    pub fn counted_steps(&self) -> usize {
        match self.workload {
            Workload::EvolutionChurn => self.traced.len(),
            _ => self.scale.trace_queries,
        }
    }

    /// Queries a traced pass sends before timing anything, so caches are
    /// full and payloads parsed. None on `evolution_churn`: every pass of
    /// its script starts from the set-up state, as every block of its
    /// window does.
    pub fn warm_queries(&self) -> &[Request] {
        match self.workload {
            Workload::EvolutionChurn => &[],
            _ => &self.queries,
        }
    }
}

/// `trace_queries` queries, then each release followed by the query that
/// must show it.
fn read_traced_script(scale: Scale, releases: usize) -> Vec<Op> {
    let mut script = vec![Op::Query(0); scale.trace_queries];
    for release in 0..releases {
        script.push(Op::Release(release));
        script.push(Op::Query(0));
    }
    script
}

fn serve_hot(scale: Scale) -> Scenario {
    let eco = football::build_default();
    let player = usecase::ex("Player");
    let team = usecase::sports_team();
    // The paper's release (§3): Players v2 as wrapper w3, mirroring
    // `usecase::register_players_v2`.
    let attributes = [
        ("id", "playerId"),
        ("pName", "playerName"),
        ("height", "height"),
        ("weight", "weight"),
        ("foot", "foot"),
        ("nationality", "nationality"),
        ("teamId", "teamId"),
    ];
    let players_v2 = Release::new(
        vec![
            StewardOp::Feature {
                concept: player.clone(),
                feature: usecase::ex("nationality"),
            },
            StewardOp::Wrapper(football::w3_players_v2(&eco)),
            StewardOp::Mapping(MappingSpec {
                wrapper: "w3".to_string(),
                concepts: vec![player.clone(), team.clone()],
                features: attributes.iter().map(|(_, f)| usecase::ex(f)).collect(),
                relations: vec![(player, usecase::ex("hasTeam"), team)],
                same_as: attributes
                    .iter()
                    .map(|(a, f)| (a.to_string(), usecase::ex(f)))
                    .collect(),
            }),
        ],
        None,
    );
    Scenario::assemble(
        Workload::ServeHot,
        scale,
        Ecosystem::Football(Box::new(eco)),
        vec![usecase::figure8_walk()],
        vec![players_v2],
        vec![Op::Query(0)],
        read_traced_script(scale, 1),
    )
}

/// Drops every version after the first `registered` of each source.
fn set_up_state(mut eco: SyntheticEcosystem, registered: usize) -> Ecosystem {
    for source in &mut eco.sources {
        source.wrappers.truncate(registered);
    }
    Ecosystem::Synthetic(eco)
}

/// The mechanical LAV mapping of a synthetic wrapper, as
/// `mdm_core::synthetic::register_synthetic_wrapper` derives it.
fn synthetic_release(
    eco: &SyntheticEcosystem,
    concept: usize,
    version_index: usize,
    visible_attribute: Option<usize>,
) -> Release {
    let wrapper = eco.sources[concept].wrappers[version_index].clone();
    let node = concept_iri(concept);
    let mut spec = MappingSpec {
        wrapper: wrapper.name().to_string(),
        concepts: vec![node.clone()],
        features: Vec::new(),
        relations: Vec::new(),
        same_as: Vec::new(),
    };
    for attribute in eco.concept_attributes(concept) {
        if attribute.ends_with("_next") {
            continue;
        }
        let feature = feature_iri(concept, &attribute);
        spec.features.push(feature.clone());
        spec.same_as.push((attribute, feature));
    }
    if concept + 1 < eco.config.concepts {
        let next = concept_iri(concept + 1);
        let next_id = feature_iri(concept + 1, "id");
        spec.concepts.push(next.clone());
        spec.features.push(next_id.clone());
        spec.relations.push((node, relation_iri(concept), next));
        spec.same_as.push((format!("c{concept}_next"), next_id));
    }
    Release::new(
        vec![StewardOp::Wrapper(wrapper), StewardOp::Mapping(spec)],
        visible_attribute,
    )
}

/// A synthetic chain in the shape `mdm_wrappers::workload::build` gives it
/// — the same fields, wrapper names and lineage-following bindings, so
/// `mdm_core::synthetic` builds the matching ontology — but evolved on a
/// fixed schedule instead of by seeded random changes. `build` may remove
/// the very field a walk projects, which halves the answer for one seed in
/// four; a workload whose amount of work is drawn by lot cannot carry a
/// bound. Here the seed decides every payload value and nothing else.
fn ecosystem(concepts: usize, versions: usize, rows: usize, seed: u64) -> SyntheticEcosystem {
    let config = WorkloadConfig {
        concepts,
        features_per_concept: 3,
        versions_per_source: versions,
        rows_per_wrapper: rows,
        seed,
    };
    let sources = (0..concepts)
        .map(|c| {
            let mut fields = vec![
                ("id".to_string(), FieldType::Int),
                (format!("c{c}_f0"), FieldType::Text),
                (format!("c{c}_f1"), FieldType::Int),
                (format!("c{c}_f2"), FieldType::Float),
            ];
            if c + 1 < concepts {
                // Equal to `id`, so the chain joins row for row.
                fields.push((format!("c{c}_next"), FieldType::Int));
            }
            let canonical: Vec<String> = fields.iter().map(|(name, _)| name.clone()).collect();
            // A payload's values are drawn from `source seed ^ version`;
            // mixing keeps small seeds from giving two sources one stream.
            let source_seed = SplitMix(seed.wrapping_add((c as u64) << 32)).next_u64();
            let mut source = EvolvingSource::new(
                format!("Source{c}"),
                SchemaSpec::new(fields),
                rows,
                source_seed,
            );
            let mut wrappers = vec![bind(&source, c, &canonical)];
            for version in 2..=versions as u32 {
                source
                    .evolve(scheduled_change(&source, c, version))
                    .expect("the schedule only makes applicable changes");
                wrappers.push(bind(&source, c, &canonical));
            }
            SyntheticSource {
                concept: c,
                source,
                wrappers,
            }
        })
        .collect();
    SyntheticEcosystem { config, sources }
}

/// Breaking and non-breaking changes in rotation; none removes a field.
/// Every fourth version renames the projected `f0`, so its values change.
fn scheduled_change(source: &EvolvingSource, c: usize, version: u32) -> ChangeKind {
    let current = |origin: String| {
        source
            .lineage()
            .into_iter()
            .find(|(_, from)| from.as_deref() == Some(origin.as_str()))
            .map(|(name, _)| name)
            .expect("canonical fields are never removed")
    };
    match version % 4 {
        2 => ChangeKind::RenameField {
            from: current(format!("c{c}_f0")),
            to: format!("c{c}_f0_v{version}"),
        },
        3 => ChangeKind::ChangeType {
            name: current(format!("c{c}_f1")),
            to: FieldType::Text,
        },
        0 => ChangeKind::AddField {
            name: format!("c{c}_extra_v{version}"),
            field_type: FieldType::Int,
        },
        _ => ChangeKind::RenameField {
            from: current(format!("c{c}_f2")),
            to: format!("c{c}_f2_v{version}"),
        },
    }
}

/// The steward's wrapper for the source's current version: canonical
/// attribute names, each bound through lineage to today's payload column.
fn bind(source: &EvolvingSource, c: usize, canonical: &[String]) -> Wrapper {
    let lineage = source.lineage();
    let bindings: Vec<(String, String)> = canonical
        .iter()
        .map(|attribute| {
            let column = lineage
                .iter()
                .find(|(_, origin)| origin.as_deref() == Some(attribute.as_str()))
                .map_or_else(|| attribute.clone(), |(current, _)| current.clone());
            (attribute.clone(), column)
        })
        .collect();
    let version = source.version();
    let release = source
        .endpoint
        .release(version)
        .expect("the current version is published")
        .clone();
    Wrapper::over_release(
        Signature::new(format!("s{c}_v{version}"), canonical.to_vec())
            .expect("canonical names are valid"),
        source.endpoint.name(),
        release,
        bindings,
    )
    .expect("one binding per attribute")
}

fn scan(workload: Workload, scale: Scale, seed: u64) -> Scenario {
    const REGISTERED: usize = 2;
    let eco = ecosystem(2, REGISTERED + scale.trace_releases, scale.scan_rows, seed);
    let walk = match workload {
        // Joins and deduplicates every row but returns one column of C0.
        Workload::ScanJoin => Walk::new()
            .feature(&concept_iri(0), &feature_iri(0, "c0_f0"))
            .concept(&concept_iri(1))
            .relation(&concept_iri(0), &relation_iri(0), &concept_iri(1)),
        _ => chain_walk(&eco, 2),
    };
    // Releases land on C0, whose feature both walks project.
    let releases = (0..scale.trace_releases)
        .map(|i| synthetic_release(&eco, 0, REGISTERED + i, None))
        .collect::<Vec<_>>();
    let traced = read_traced_script(scale, releases.len());
    Scenario::assemble(
        workload,
        scale,
        set_up_state(eco, REGISTERED),
        vec![walk],
        releases,
        vec![Op::Query(0)],
        traced,
    )
}

fn churn(scale: Scale, seed: u64) -> Scenario {
    let rounds = scale.churn_rounds;
    // v1 is the set-up state; a source can be released on every round.
    let eco = ecosystem(CHURN_CONCEPTS, 1 + rounds, CHURN_ROWS, seed);
    // Walks 0..3: the hot walks k = 1, 2, 3 over C0–C2. Then one tail walk
    // per releasable source, over that source's concept alone.
    const RELEASABLE: [usize; 3] = [1, 5, 6];
    let mut walks: Vec<Walk> = (1..=3).map(|k| chain_walk(&eco, k)).collect();
    for c in RELEASABLE {
        walks.push(Walk::new().feature(&concept_iri(c), &feature_iri(c, &format!("c{c}_f0"))));
    }
    let tail_walk = |c: usize| 3 + RELEASABLE.iter().position(|r| *r == c).expect("releasable");
    // `c{c}_f0` is attribute 1 of every synthetic signature (after `id`).
    const F0: usize = 1;

    let mut rng = SplitMix(seed);
    let mut versions = [1usize; CHURN_CONCEPTS];
    let mut releases = Vec::with_capacity(rounds);
    let mut script = Vec::with_capacity(rounds * (2 + CHURN_HOT_QUERIES));
    for round in 0..rounds {
        let tail = if rng.next_u64().is_multiple_of(2) {
            5
        } else {
            6
        };
        let c = if round % 4 == 3 && versions[1] < CHURN_C1_MAX_VERSIONS {
            1
        } else {
            tail
        };
        script.push(Op::Release(releases.len()));
        releases.push(synthetic_release(&eco, c, versions[c], Some(F0)));
        versions[c] += 1;
        script.push(Op::Query(tail_walk(c)));
        script.extend((0..CHURN_HOT_QUERIES).map(|i| Op::Query(i % 3)));
    }
    Scenario::assemble(
        Workload::EvolutionChurn,
        scale,
        set_up_state(eco, 1),
        walks,
        releases,
        script.clone(),
        script,
    )
}
