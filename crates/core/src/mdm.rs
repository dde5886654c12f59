//! The MDM facade: the four kinds of interaction the paper demonstrates
//! (§2): (a) definition of the global graph, (b) registration of wrappers,
//! (c) definition of LAV mappings, (d) querying the global graph.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mdm_rdf::term::Iri;
use mdm_relational::{
    explain_tree, pool, BreakerConfig, BreakerRegistry, BreakerSnapshot, Catalog, Deadline,
    ExecOptions, Executor, OptimizeMode, Optimizer, Plan, Pool, PoolStats, RetryPolicy, ScanCache,
    StatsCatalog, StatsSnapshot,
};
use mdm_wrappers::{FaultPlan, Wrapper, WrapperCatalog};

use crate::cache::{CacheStats, Found, PlanCache, PreparedKey, PreparedSlot};
use crate::changes::{ChangeLog, ChangeRecord, DEFAULT_CHANGELOG_CAPACITY};
use crate::error::MdmError;
use crate::gav::GavMapping;
use crate::intra::partial_walks;
use crate::journal::{JournalSink, MutationOp};
use crate::mapping::MappingBuilder;
use crate::ontology::BdiOntology;
use crate::query::{
    answer_walk_with, execute_degraded, DegradedAnswer, PreparedPlans, QueryAnswer,
};
use crate::release::{register_source, register_wrapper, Registration};
use crate::render;
use crate::rewrite::{
    assemble, rewrite_walk, rewrite_walk_with_artifacts, RewriteArtifacts, RewriteOptions,
    Rewriting,
};
use crate::walk::Walk;

/// Outcome of onboarding one wrapper via [`Mdm::onboard_source`].
#[derive(Clone, Debug)]
pub struct OnboardReport {
    pub wrapper: String,
    /// True when the suggested mapping was complete and applied.
    pub mapped: bool,
    /// Accepted suggestion count.
    pub suggestions: usize,
    /// Attributes without any mapping candidate.
    pub unmatched: Vec<String>,
    /// Covered concepts whose identifier stayed unmapped (compact IRIs).
    pub identifier_gaps: Vec<String>,
}

/// What [`Mdm::apply`] reports for the op it carried out: what the steward
/// routes acknowledge.
#[derive(Clone, Debug)]
pub enum Applied {
    /// The element the op defined: the concept, the feature, the relation's
    /// property, the subconcept, the data source, or the mapping's named
    /// graph.
    Defined(Iri),
    /// A wrapper registration: which attributes it reused and minted.
    Registered(Registration),
    /// A prefix binding or an options change.
    Set,
}

impl Applied {
    /// The IRI of an op that defines an element.
    fn into_iri(self) -> Iri {
        match self {
            Applied::Defined(iri) => iri,
            other => unreachable!("{other:?} defines no element"),
        }
    }
}

/// The Metadata Management System.
///
/// Owns the BDI ontology (metadata level) and the wrapper catalog
/// (execution level); the steward methods mutate the former and register
/// into the latter, the analyst methods rewrite and execute.
pub struct Mdm {
    ontology: BdiOntology,
    catalog: WrapperCatalog,
    options: RewriteOptions,
    /// Metadata epoch: bumped by every successful steward mutation, so
    /// derived artifacts (cached plans) can be validated against the
    /// metadata they were computed from.
    epoch: u64,
    plan_cache: PlanCache,
    /// Retry policy applied to every relation fetch during execution.
    retry: RetryPolicy,
    /// Per-wrapper circuit breakers shared by all query executions.
    breakers: BreakerRegistry,
    /// Worker pool fanning union branches (and large join probes) out
    /// across cores. `None` forces the legacy sequential path.
    pool: Option<Arc<Pool>>,
    /// Upper bound on tuples moved per operator batch while draining
    /// queries (the executor still adapts downward for small inputs).
    batch_size: usize,
    /// Cardinality statistics feeding the cost-based optimizer. Shared with
    /// every executor this instance builds (scans feed observations back)
    /// and versioned by its own **stats epoch** — bumped by
    /// [`Mdm::refresh_stats`], never by metadata mutations.
    stats: Arc<StatsCatalog>,
    /// Plan-optimization mode applied before execution: `Cost` (default)
    /// or `Off`. Never changes query *results*, only the physical plan
    /// shape.
    optimize: OptimizeMode,
    /// Branch plans this instance has prepared (run through the
    /// optimizer) for its plan cache's entries.
    branch_plans_optimized: AtomicU64,
    /// Durability hook: every successful steward mutation is handed here as
    /// a [`MutationOp`] stamped with the post-mutation epoch. `None` (the
    /// default) keeps the instance purely in-memory.
    journal: Option<Arc<dyn JournalSink>>,
    /// The evolution changefeed: a bounded history of committed mutations
    /// with their footprints, serving `GET /changes?since=epoch` and the
    /// CLI `changes` command on every role (see [`crate::changes`]).
    changes: ChangeLog,
}

impl Default for Mdm {
    fn default() -> Self {
        Self::new()
    }
}

impl Mdm {
    /// A fresh, empty system.
    pub fn new() -> Self {
        Mdm {
            ontology: BdiOntology::new(),
            catalog: WrapperCatalog::new(),
            options: RewriteOptions::default(),
            epoch: 0,
            plan_cache: PlanCache::default(),
            retry: RetryPolicy::default(),
            breakers: BreakerRegistry::default(),
            pool: Some(pool::global()),
            batch_size: mdm_relational::executor::DEFAULT_BATCH,
            stats: mdm_relational::stats::global(),
            optimize: OptimizeMode::default(),
            branch_plans_optimized: AtomicU64::new(0),
            journal: None,
            changes: ChangeLog::new(DEFAULT_CHANGELOG_CAPACITY),
        }
    }

    /// Sets the execution parallelism: `0` selects the process-wide shared
    /// pool sized from `available_parallelism`, `1` forces the legacy
    /// sequential path, and any other `n` builds a dedicated `n`-worker
    /// pool for this instance.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = match threads {
            0 => Some(pool::global()),
            1 => None,
            n => Some(Arc::new(Pool::new(n))),
        };
    }

    /// The number of workers query execution fans out on (1 = sequential).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.size())
    }

    /// Counters of the worker pool, if one is attached (for `/metrics`).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// Sets the operator batch width used while draining queries. `0`
    /// restores the default. The executor caps the effective width at the
    /// query's input cardinality, so large values only matter for large
    /// inputs.
    pub fn set_batch_size(&mut self, batch_size: usize) {
        self.batch_size = if batch_size == 0 {
            mdm_relational::executor::DEFAULT_BATCH
        } else {
            batch_size
        };
    }

    /// The configured operator batch width.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Sets the plan-optimization mode: `cost` (default) runs the full
    /// stats-driven pipeline, `off` executes rewritings verbatim (the
    /// optimizer's test oracle). Results are identical in both; only
    /// execution cost changes. Cached walks prepare their branch plans
    /// again on their next query.
    pub fn set_optimize(&mut self, mode: OptimizeMode) {
        self.optimize = mode;
    }

    /// The configured plan-optimization mode.
    pub fn optimize_mode(&self) -> OptimizeMode {
        self.optimize
    }

    /// Replaces the statistics catalog — embedders and tests wanting
    /// isolation from the process-wide one. Cached walks prepare their
    /// branch plans again on their next query.
    pub fn set_stats_catalog(&mut self, stats: Arc<StatsCatalog>) {
        self.stats = stats;
    }

    /// Branch plans this instance has run through the optimizer since it
    /// was built. A cached walk prepares its plans on its first query and
    /// again only when the stats catalog, its version or the optimize
    /// mode changed, so a warm repeat adds nothing.
    pub fn branch_plans_optimized(&self) -> u64 {
        self.branch_plans_optimized.load(Ordering::Relaxed)
    }

    /// The current stats epoch (see [`Mdm::refresh_stats`]).
    pub fn stats_epoch(&self) -> u64 {
        self.stats.epoch()
    }

    /// The steward's "re-profile the ecosystem" action: bumps the stats
    /// epoch so the next scan of each relation re-observes it, and the
    /// catalog's version, so the next query of each cached walk optimizes
    /// its branch plans again. Takes `&self`
    /// and does **not** touch the metadata epoch — a stats refresh is not a
    /// release, so cached rewritings (and golden outputs) survive it.
    pub fn refresh_stats(&self) -> u64 {
        self.stats.refresh()
    }

    /// Inventory + counters of the statistics catalog (for `/metrics` and
    /// the CLI `stats` command).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Execution options for one query: the instance's retry policy, pool
    /// and metadata epoch (the scan-cache key component), plus the caller's
    /// deadline.
    fn exec_options(&self, deadline: Deadline) -> ExecOptions {
        ExecOptions {
            retry: self.retry.clone(),
            deadline,
            pool: self.pool.clone(),
            batch_size: self.batch_size,
            epoch: self.epoch,
            stats: Some(Arc::clone(&self.stats)),
        }
    }

    /// The metadata epoch. Strictly increases across steward mutations;
    /// two equal epochs guarantee the metadata (and thus every rewriting)
    /// is unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Counters of the rewrite-plan cache backing [`Mdm::rewrite_cached`].
    pub fn cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Attaches (or detaches) the durability sink. Replay attaches it only
    /// *after* recovery completes, so replayed mutations never re-journal.
    pub fn set_journal(&mut self, sink: Option<Arc<dyn JournalSink>>) {
        self.journal = sink;
    }

    /// The attached durability sink, if any (drain paths flush through it).
    pub fn journal(&self) -> Option<&Arc<dyn JournalSink>> {
        self.journal.as_ref()
    }

    /// Commits one successfully applied mutation: bumps the metadata epoch,
    /// sweeps the plan cache with the op's footprint (the one place a
    /// cached rewriting is kept, marked for extension or dropped; see
    /// [`crate::cache`]), appends the changefeed record, and hands the op
    /// to the journal. Only [`Mdm::apply`] calls it, so the four surfaces
    /// cannot drift.
    ///
    /// A failing journal sink does not undo the in-memory change; the sink
    /// reports the durability loss through its own health surface
    /// (`/healthz` flips to `degraded`).
    fn commit(&mut self, op: &MutationOp) {
        self.epoch += 1;
        let footprint = op.footprint();
        let extension = op.is_extension();
        self.plan_cache
            .note_mutation(self.epoch, footprint.clone(), extension);
        self.changes.push(ChangeRecord {
            epoch: self.epoch,
            kind: op.kind(),
            summary: op.summary(),
            footprint,
            extension,
        });
        if let Some(sink) = &self.journal {
            let _ = sink.record(op, self.epoch);
        }
    }

    /// Changefeed records with `epoch > since`, oldest first, at most
    /// `limit`; the boolean reports cursor truncation (see
    /// [`ChangeLog::since`]).
    pub fn changes_since(&self, since: u64, limit: usize) -> (Vec<ChangeRecord>, bool) {
        self.changes.since(since, limit)
    }

    /// Raises the epoch to at least `floor`. A freshly restored [`Mdm`]
    /// starts at its snapshot's epoch; [`Mdm::restore`] raises it past the
    /// epoch it replaces so observers see time move forward only. This
    /// instance holds no record of the epochs it skips, so the changefeed's
    /// horizon moves up with it: a cursor below `floor` is told it is
    /// truncated. Cached plans from before the jump are not served after it
    /// (see [`crate::cache`]).
    pub(crate) fn ensure_epoch_at_least(&mut self, floor: u64) {
        if self.epoch < floor {
            self.epoch = floor;
            self.changes.forget_through(floor);
        }
    }

    /// The ontology (read-only).
    pub fn ontology(&self) -> &BdiOntology {
        &self.ontology
    }

    /// The wrapper catalog (read-only).
    pub fn catalog(&self) -> &WrapperCatalog {
        &self.catalog
    }

    /// Carries out one steward mutation — the one function every typed
    /// mutator, steward route, WAL recovery and replica replay runs. It
    /// makes the ontology (or options) change `op` describes, then commits
    /// `op` itself: the epoch bump, the plan cache's footprint test, the
    /// changefeed record and the journal append all see the op that was
    /// applied. A rejected op changes nothing and commits nothing.
    pub fn apply(&mut self, op: &MutationOp) -> Result<Applied, MdmError> {
        let iri = |text: &str| Iri::new(text);
        let applied = match op {
            MutationOp::DefineConcept { concept } => {
                let concept = iri(concept);
                self.ontology.add_concept(&concept)?;
                Applied::Defined(concept)
            }
            MutationOp::DefineFeature {
                concept,
                feature,
                identifier,
            } => {
                let (concept, feature) = (iri(concept), iri(feature));
                if *identifier {
                    self.ontology.add_identifier(&concept, &feature)?;
                } else {
                    self.ontology.add_feature(&concept, &feature)?;
                }
                Applied::Defined(feature)
            }
            MutationOp::DefineRelation { from, property, to } => {
                let property = iri(property);
                self.ontology
                    .add_relation(&iri(from), &property, &iri(to))?;
                Applied::Defined(property)
            }
            MutationOp::DefineSubconcept { sub, sup } => {
                let sub = iri(sub);
                self.ontology.add_subconcept(&sub, &iri(sup))?;
                Applied::Defined(sub)
            }
            MutationOp::AddSource { name } => {
                Applied::Defined(register_source(&mut self.ontology, name)?)
            }
            MutationOp::RegisterWrapper {
                source,
                wrapper,
                version,
                attributes,
            } => Applied::Registered(register_wrapper(
                &mut self.ontology,
                source,
                wrapper,
                *version,
                attributes,
            )?),
            MutationOp::DefineMapping {
                wrapper,
                concepts,
                features,
                relations,
                same_as,
            } => {
                let mut builder = MappingBuilder::for_wrapper(wrapper);
                for concept in concepts {
                    builder = builder.cover_concept(&iri(concept));
                }
                for feature in features {
                    builder = builder.cover_feature(&iri(feature));
                }
                for (from, property, to) in relations {
                    builder = builder.cover_relation(&iri(from), &iri(property), &iri(to));
                }
                for (attribute, feature) in same_as {
                    builder = builder.same_as(attribute, &iri(feature));
                }
                Applied::Defined(builder.apply(&mut self.ontology)?)
            }
            MutationOp::BindPrefix { prefix, namespace } => {
                self.ontology.bind_prefix(prefix, namespace);
                Applied::Set
            }
            MutationOp::SetOptions {
                distinct,
                max_branches,
            } => {
                self.options = RewriteOptions {
                    distinct: *distinct,
                    max_branches: *max_branches as usize,
                };
                Applied::Set
            }
        };
        self.commit(op);
        Ok(applied)
    }

    /// Sets the rewriting options (distinct on/off). Options shape the
    /// generated plans, so this bumps the epoch like a metadata change.
    pub fn set_options(&mut self, options: RewriteOptions) {
        let op = MutationOp::SetOptions {
            distinct: options.distinct,
            max_branches: options.max_branches as u64,
        };
        self.apply(&op).expect("options always apply");
    }

    // ------------------------------------------------------------------
    // (a) Definition of the global graph
    // ------------------------------------------------------------------

    /// Declares a concept.
    pub fn define_concept(&mut self, concept: &Iri) -> Result<(), MdmError> {
        let concept = concept.to_string();
        self.apply(&MutationOp::DefineConcept { concept }).map(drop)
    }

    /// Declares a feature of a concept.
    pub fn define_feature(&mut self, concept: &Iri, feature: &Iri) -> Result<(), MdmError> {
        self.define_feature_op(concept, feature, false)
    }

    /// Declares the identifier feature of a concept.
    pub fn define_identifier(&mut self, concept: &Iri, feature: &Iri) -> Result<(), MdmError> {
        self.define_feature_op(concept, feature, true)
    }

    fn define_feature_op(
        &mut self,
        concept: &Iri,
        feature: &Iri,
        identifier: bool,
    ) -> Result<(), MdmError> {
        let op = MutationOp::DefineFeature {
            concept: concept.to_string(),
            feature: feature.to_string(),
            identifier,
        };
        self.apply(&op).map(drop)
    }

    /// Relates two concepts.
    pub fn define_relation(
        &mut self,
        from: &Iri,
        property: &Iri,
        to: &Iri,
    ) -> Result<(), MdmError> {
        let op = MutationOp::DefineRelation {
            from: from.to_string(),
            property: property.to_string(),
            to: to.to_string(),
        };
        self.apply(&op).map(drop)
    }

    /// Declares a concept taxonomy edge.
    pub fn define_subconcept(&mut self, sub: &Iri, sup: &Iri) -> Result<(), MdmError> {
        let (sub, sup) = (sub.to_string(), sup.to_string());
        self.apply(&MutationOp::DefineSubconcept { sub, sup })
            .map(drop)
    }

    // ------------------------------------------------------------------
    // (b) Registration of data sources and wrappers
    // ------------------------------------------------------------------

    /// Registers a data source.
    pub fn add_source(&mut self, name: &str) -> Result<Iri, MdmError> {
        let name = name.to_string();
        Ok(self.apply(&MutationOp::AddSource { name })?.into_iri())
    }

    /// Registers a wrapper release: extracts its schema into the source
    /// graph (reusing attributes of earlier releases of the same source)
    /// *and* installs the runnable wrapper in the execution catalog.
    ///
    /// The wrapper's signature and the metadata registration are taken from
    /// the same object, so they cannot drift. The journal records the
    /// registration only: payloads are data, not metadata, so recovery and
    /// replicas repopulate the catalog separately.
    pub fn register_wrapper(&mut self, wrapper: Wrapper) -> Result<Registration, MdmError> {
        let op = MutationOp::RegisterWrapper {
            source: wrapper.source().to_string(),
            wrapper: wrapper.name().to_string(),
            version: wrapper.version(),
            attributes: wrapper.signature().attributes().to_vec(),
        };
        let Applied::Registered(registration) = self.apply(&op)? else {
            unreachable!("a wrapper registration reports its attributes")
        };
        self.catalog.register(wrapper);
        Ok(registration)
    }

    /// Installs an executable wrapper into the catalog **without** touching
    /// metadata, the epoch, or the journal. This is the replica hydration
    /// path: journal replay registers wrapper *metadata* only (payloads are
    /// data, not metadata), so a replica fetches each payload from its
    /// primary and installs it here. The wrapper must already be known to
    /// the replayed metadata — hydrating an undeclared wrapper is an error,
    /// because plans would never route to it anyway.
    pub fn hydrate_wrapper(&mut self, wrapper: Wrapper) -> Result<(), MdmError> {
        let name = wrapper.name();
        let declared = self
            .ontology
            .wrappers()
            .iter()
            .any(|iri| iri.local_name() == name);
        if !declared {
            return Err(MdmError::Registration(format!(
                "cannot hydrate wrapper '{name}': not declared in the replayed metadata"
            )));
        }
        self.catalog.register(wrapper);
        Ok(())
    }

    /// One-call onboarding of a source release: instantiates the wrappers a
    /// declarative config describes (see [`mdm_wrappers::config`]), registers
    /// each, runs the mapping-suggestion engine, and applies every draft
    /// that is complete. Returns a per-wrapper report; wrappers whose draft
    /// has gaps stay registered-but-unmapped for the steward to finish.
    ///
    /// This is the paper's "semi-automatically integrate new sources"
    /// pipeline end to end.
    pub fn onboard_source(
        &mut self,
        endpoint: &mdm_wrappers::RestSource,
        config_text: &str,
    ) -> Result<Vec<OnboardReport>, MdmError> {
        let config = mdm_wrappers::config::parse(config_text)
            .map_err(|e| MdmError::Registration(e.to_string()))?;
        let wrappers = config
            .instantiate(endpoint)
            .map_err(|e| MdmError::Registration(e.to_string()))?;
        self.add_source(&config.source)?;
        let mut reports = Vec::with_capacity(wrappers.len());
        for wrapper in wrappers {
            let name = wrapper.name().to_string();
            self.register_wrapper(wrapper)?;
            let draft = crate::assist::suggest_mapping(&self.ontology, &name)?;
            let mapped = if draft.is_applicable() {
                // Route through `define_mapping` so the applied draft is
                // journalled like a hand-written mapping.
                let builder = draft.to_builder(&self.ontology);
                self.define_mapping(builder).is_ok()
            } else {
                false
            };
            reports.push(OnboardReport {
                wrapper: name,
                mapped,
                suggestions: draft.accepted.len(),
                unmatched: draft.unmatched.clone(),
                identifier_gaps: draft
                    .identifier_gaps
                    .iter()
                    .map(|c| self.ontology.compact(c))
                    .collect(),
            });
        }
        Ok(reports)
    }

    // ------------------------------------------------------------------
    // (c) Definition of LAV mappings
    // ------------------------------------------------------------------

    /// Applies a LAV mapping built with [`MappingBuilder`]; returns its
    /// named graph.
    pub fn define_mapping(&mut self, builder: MappingBuilder) -> Result<Iri, MdmError> {
        Ok(self.apply(&MutationOp::from_mapping(&builder))?.into_iri())
    }

    // ------------------------------------------------------------------
    // (d) Querying the global graph
    // ------------------------------------------------------------------

    /// Parses walk text in the [`crate::walk_dsl`] notation against this
    /// ontology and validates the walk: what every front end does with the
    /// text an analyst typed, before rewriting or running it.
    pub fn parse_walk(&self, text: &str) -> Result<Walk, MdmError> {
        let walk = crate::walk_dsl::parse_walk(text, &self.ontology)?;
        walk.validate(&self.ontology)?;
        Ok(walk)
    }

    /// Rewrites a walk without executing it (shows SPARQL + algebra, the
    /// Figure 8 view).
    pub fn rewrite(&self, walk: &Walk) -> Result<Rewriting, MdmError> {
        rewrite_walk(&self.ontology, walk, &self.options)
    }

    /// Like [`Mdm::rewrite`], but consulting the footprint-validated plan
    /// cache first: a walk already rewritten at the current metadata epoch —
    /// or whose cached plan survived every intervening mutation's footprint
    /// test — is served without re-running the three phases, and a plan
    /// stale *only* behind new mapping definitions is repaired by
    /// incremental UCQ extension instead of a cold rewrite. Safe under
    /// concurrency — the cache is internally synchronised, so shared
    /// (`&self`) callers on many threads all benefit.
    pub fn rewrite_cached(&self, walk: &Walk) -> Result<Arc<Rewriting>, MdmError> {
        self.rewrite_slotted(walk).map(|(rewriting, _)| rewriting)
    }

    /// [`Mdm::rewrite_cached`], with the cache entry's prepared slot.
    fn rewrite_slotted(
        &self,
        walk: &Walk,
    ) -> Result<(Arc<Rewriting>, Arc<PreparedSlot>), MdmError> {
        let key = walk.canonical_key();
        match self.plan_cache.lookup(&key, self.epoch) {
            Found::Hit(rewriting, slot) => Ok((rewriting, slot)),
            Found::Extend {
                artifacts,
                affected,
            } => match self.extend_rewriting(walk, &artifacts, &affected) {
                Ok((rewriting, extended)) => {
                    let rewriting = Arc::new(rewriting);
                    let slot = self.plan_cache.insert(
                        key,
                        self.epoch,
                        Arc::clone(&rewriting),
                        Arc::new(extended),
                        true,
                    );
                    Ok((rewriting, slot))
                }
                // Extension is an optimization, never a correctness
                // dependency: any failure falls back to the cold path.
                Err(_) => self.rewrite_cold(walk, key),
            },
            Found::Miss => self.rewrite_cold(walk, key),
        }
    }

    /// The cold path of [`Mdm::rewrite_cached`]: full three-phase rewrite,
    /// cached with its artifacts so later mutations can validate or extend
    /// it surgically.
    fn rewrite_cold(
        &self,
        walk: &Walk,
        key: String,
    ) -> Result<(Arc<Rewriting>, Arc<PreparedSlot>), MdmError> {
        let (rewriting, artifacts) =
            rewrite_walk_with_artifacts(&self.ontology, walk, &self.options)?;
        let rewriting = Arc::new(rewriting);
        let slot = self.plan_cache.insert(
            key,
            self.epoch,
            Arc::clone(&rewriting),
            Arc::new(artifacts),
            false,
        );
        Ok((rewriting, slot))
    }

    /// The served path's [`Mdm::rewrite_cached`]: the cached rewriting and
    /// its prepared branch plans. The plans are reused while the stats
    /// catalog, its version and the optimize mode are the ones they were
    /// prepared against; otherwise they are prepared again, inline, with
    /// what this query would have optimized against, and stored for the
    /// next query. The slot's lock is held while preparing, so concurrent
    /// queries of one walk prepare once.
    fn rewrite_prepared(
        &self,
        walk: &Walk,
    ) -> Result<(Arc<Rewriting>, Arc<PreparedPlans>), MdmError> {
        let (rewriting, slot) = self.rewrite_slotted(walk)?;
        let mut slot = slot.0.lock().expect("prepared slot poisoned");
        // Read before optimizing: an observation landing meanwhile moves
        // the version past this key, so the next query prepares again.
        let version = self.stats.version();
        if let Some((key, plans)) = slot.as_ref() {
            if key.matches(&self.stats, self.optimize, version) {
                return Ok((rewriting, Arc::clone(plans)));
            }
        }
        let plans = Arc::new(PreparedPlans::prepare(&rewriting, &|plan| {
            self.optimize_plan(plan)
        })?);
        self.branch_plans_optimized
            .fetch_add(plans.branches.len() as u64, Ordering::Relaxed);
        let key = PreparedKey {
            stats: Arc::downgrade(&self.stats),
            mode: self.optimize,
            version,
        };
        *slot = Some((key, Arc::clone(&plans)));
        Ok((rewriting, plans))
    }

    /// Incremental UCQ extension: re-runs the intra-concept phase (b) only
    /// for walk concepts whose taxonomic closure intersects the concepts
    /// the intervening mappings cover, reuses the cached phase (a)/(b)
    /// outputs for everything else, and re-assembles. [`assemble`] is
    /// deterministic in its inputs, so the result is byte-identical to a
    /// cold rewrite at the same epoch — only cheaper.
    fn extend_rewriting(
        &self,
        walk: &Walk,
        artifacts: &RewriteArtifacts,
        affected: &BTreeSet<String>,
    ) -> Result<(Rewriting, RewriteArtifacts), MdmError> {
        let expanded = artifacts.expanded.clone();
        let mut alternatives = artifacts.alternatives.clone();
        for concept in expanded.walk.concepts() {
            let touched = std::iter::once(concept.clone())
                .chain(self.ontology.subconcepts_of(concept))
                .chain(self.ontology.superconcepts_of(concept))
                .any(|related| affected.contains(&related.to_string()));
            if touched {
                let features = expanded.walk.features_of(concept);
                alternatives.insert(
                    concept.clone(),
                    partial_walks(&self.ontology, concept, features)?,
                );
            }
        }
        assemble(&self.ontology, walk, expanded, alternatives, &self.options)
    }

    /// Applies the configured optimization mode to one plan, consulting the
    /// current statistics.
    fn optimize_plan(&self, plan: Plan) -> Plan {
        let resolve = |name: &str| self.catalog.relation_schema(name);
        Optimizer::new(self.stats.as_ref(), &resolve).optimize_with(self.optimize, plan)
    }

    /// The `explain` surface: the prepared branch plans the served path
    /// runs for `walk` — the ones the walk's plan-cache entry hands the
    /// next query — each operator annotated with its estimated cardinality and
    /// the actual row count obtained by executing that subtree.
    ///
    /// The first line is the merge (δ under set semantics, ∪ otherwise)
    /// and how many branches run; then comes every branch in rewriting
    /// order, labelled with its wrapper set. A branch the served path
    /// skips because an earlier branch covers it prints that branch and
    /// no plan. One shared scan cache keeps every wrapper fetched once
    /// despite the per-node runs, and the runs feed no statistics, so the
    /// plans explained stay the ones the next query runs.
    pub fn explain_plan(&self, walk: &Walk) -> Result<String, MdmError> {
        let (rewriting, plans) = self.rewrite_prepared(walk)?;
        let resolve = |name: &str| self.catalog.relation_schema(name);
        let optimizer = Optimizer::new(self.stats.as_ref(), &resolve);
        let exec_options = ExecOptions {
            stats: None,
            ..self.exec_options(Deadline::none())
        };
        let cache = ScanCache::new();
        let actual = |subtree: &Plan| {
            Executor::with_options(&self.catalog, exec_options.clone())
                .with_scan_cache(&cache)
                .run(subtree)
                .ok()
                .map(|table| table.len())
        };
        let total = plans.branches.len();
        let covered = rewriting.covered_by.iter().flatten().count();
        let merge = if rewriting.distinct { "δ" } else { "∪" };
        let mut out = format!(
            "{merge} over {total} branches: {} run, {covered} covered\n",
            total - covered
        );
        for (i, (cq, container)) in rewriting
            .queries
            .iter()
            .zip(&rewriting.covered_by)
            .enumerate()
        {
            let label = format!("branch {} [{}]", i + 1, cq.atoms.join("+"));
            match container {
                Some(j) => out.push_str(&format!("{label}: covered by branch {}\n", j + 1)),
                None => {
                    out.push_str(&label);
                    out.push('\n');
                    let tree =
                        explain_tree(&plans.branches[i].plan, &|p| optimizer.estimate(p), &actual);
                    for line in tree.lines() {
                        out.push_str("  ");
                        out.push_str(line);
                        out.push('\n');
                    }
                }
            }
        }
        Ok(out)
    }

    /// The **reference** path ([`answer_walk_with`]): rewrites cold, runs
    /// each branch's unoptimized plan on one executor and does its own
    /// union, δ and sort. Nothing serves this; goldens, the churn proptest
    /// and the benchmark oracle hold [`Mdm::query_degraded`] against it row
    /// for row.
    pub fn query(&self, walk: &Walk) -> Result<QueryAnswer, MdmError> {
        answer_walk_with(
            &self.ontology,
            walk,
            &self.catalog,
            &self.options,
            &self.exec_options(Deadline::none()),
        )
    }

    /// The **served** pipeline, shared by every analyst-facing shape: the
    /// rewriting and its branch plans, optimized against the current
    /// statistics, come from the plan cache ([`Mdm::rewrite_prepared`]),
    /// and [`execute_degraded`] fans the branches out under this
    /// instance's pool, batch width, retry policy, breakers and epoch.
    fn execute(
        &self,
        walk: &Walk,
        deadline: Deadline,
        provenance: bool,
    ) -> Result<DegradedAnswer, MdmError> {
        let (rewriting, plans) = self.rewrite_prepared(walk)?;
        let (rows, mut completeness) = execute_degraded(
            &rewriting,
            &self.catalog,
            &plans,
            &self.exec_options(deadline),
            Some(&self.breakers),
            provenance,
        )?;
        // Enrich wrapper names with the version each one consumes
        // (`w3@v2`), so completeness reports pin down *which release*
        // contributed or was dropped.
        let label = |name: &String| match self.catalog.get(name) {
            Some(w) => format!("{name}@v{}", w.version()),
            None => name.clone(),
        };
        completeness.contributors = completeness.contributors.iter().map(label).collect();
        for dropped in &mut completeness.dropped {
            dropped.wrappers = dropped.wrappers.iter().map(label).collect();
        }
        Ok(DegradedAnswer {
            rewriting,
            rows,
            completeness,
        })
    }

    /// Executes a walk in **degraded mode** under a deadline: every
    /// relation fetch goes through the retry policy and the per-wrapper
    /// circuit breakers, and a CQ branch that fails terminally is dropped
    /// (named in the completeness report) instead of failing the whole
    /// query. Only when no branch survives — or the deadline expires
    /// before any does — is this an `Err`.
    pub fn query_degraded(
        &self,
        walk: &Walk,
        deadline: Deadline,
    ) -> Result<DegradedAnswer, MdmError> {
        self.execute(walk, deadline, false)
    }

    /// Attaches (or detaches) a fault-injection schedule to every wrapper
    /// in the catalog — the test/chaos hook behind `--fault-seed`.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.catalog.set_fault_plan(plan);
    }

    /// Sets the retry policy used by [`Mdm::query_degraded`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Replaces the circuit-breaker configuration (and resets all state).
    pub fn set_breaker_config(&mut self, config: BreakerConfig) {
        self.breakers = BreakerRegistry::new(config);
    }

    /// Current circuit-breaker state per wrapper, for `/metrics`.
    pub fn breaker_snapshots(&self) -> Vec<BreakerSnapshot> {
        self.breakers.snapshot()
    }

    /// Like [`Mdm::query_degraded`], with a trailing `provenance` column
    /// naming the union branch (wrapper set) each row came from. Provenance
    /// over a partial answer would silently hide a version, so a dropped
    /// branch is an error here.
    pub fn query_with_provenance(&self, walk: &Walk) -> Result<QueryAnswer, MdmError> {
        let answer = self.execute(walk, Deadline::none(), true)?;
        if let Some(dropped) = answer.completeness.dropped.first() {
            return Err(if dropped.kind == "timeout" {
                MdmError::Timeout(dropped.reason.clone())
            } else {
                MdmError::Execution(dropped.reason.clone())
            });
        }
        Ok(QueryAnswer {
            table: answer.table(),
            rewriting: answer.rewriting,
        })
    }

    /// Derives a GAV baseline mapping from the current metadata.
    pub fn derive_gav(&self) -> Result<GavMapping, MdmError> {
        GavMapping::derive(&self.ontology)
    }

    // ------------------------------------------------------------------
    // Renderings (the figures)
    // ------------------------------------------------------------------

    /// Figure 5: the global graph listing.
    pub fn render_global_graph(&self) -> String {
        render::global_graph_text(&self.ontology)
    }

    /// Figure 6: the source graph listing.
    pub fn render_source_graph(&self) -> String {
        render::source_graph_text(&self.ontology)
    }

    /// Figure 7: the LAV mapping listing.
    pub fn render_mappings(&self) -> String {
        render::mappings_text(&self.ontology)
    }

    /// The whole metadata state as TriG.
    pub fn render_trig(&self) -> String {
        render::ontology_trig(&self.ontology)
    }

    /// Serialises the metadata state (not the wrapper payloads): the
    /// ontology and, when they are not the default, the rewrite options.
    /// The text is epoch-free so that snapshot → restore → snapshot is a
    /// byte fixpoint; the durable store stamps the epoch itself (snapshot
    /// header + WAL header) via [`Mdm::snapshot_stamped`].
    pub fn snapshot(&self) -> String {
        crate::repo::snapshot_document(&self.ontology, &self.options, None)
    }

    /// Like [`Mdm::snapshot`] but with the metadata epoch stamped into the
    /// header, so a restored process continues the epoch sequence instead of
    /// silently resetting it. This is what the durable store persists.
    pub fn snapshot_stamped(&self) -> String {
        crate::repo::snapshot_document(&self.ontology, &self.options, Some(self.epoch))
    }

    /// Restores the metadata state from a snapshot — the ontology and the
    /// rewrite options — **including the epoch**
    /// if one is stamped in its header (plain snapshots restore at 0 — a
    /// front end swapping a snapshot into the instance it serves calls
    /// [`Mdm::restore`] instead); wrappers must be re-registered into the
    /// catalog separately (payloads are data, not metadata).
    pub fn restore_metadata(document: &str) -> Result<Mdm, MdmError> {
        Mdm::new().restored_from(document)
    }

    /// Like [`Mdm::restore_metadata`], but the new instance keeps this
    /// one's execution settings — pool, batch width, optimizer mode, retry
    /// policy, breaker configuration, stats catalog. A restore
    /// replaces metadata, not how the operator configured execution: this
    /// is what a front end swaps in for the instance it is serving.
    ///
    /// The changefeed starts at the restored epoch: the mutations that led
    /// to it are in the snapshot, not in the feed, so a cursor below it is
    /// told it is truncated.
    pub fn restored_from(&self, document: &str) -> Result<Mdm, MdmError> {
        let (ontology, epoch, options) = crate::repo::restore_with_epoch(document)?;
        let mut restored = Mdm {
            ontology,
            options,
            retry: self.retry.clone(),
            breakers: BreakerRegistry::new(self.breakers.config().clone()),
            pool: self.pool.clone(),
            batch_size: self.batch_size,
            stats: Arc::clone(&self.stats),
            optimize: self.optimize,
            ..Mdm::new()
        };
        restored.ensure_epoch_at_least(epoch);
        Ok(restored)
    }

    /// Swaps `document`'s metadata into this instance, as the REPL's
    /// `restore` and `POST /steward/restore` both do: the state is
    /// [`Mdm::restored_from`] (execution settings kept, wrapper catalog
    /// empty), swapped in by [`Mdm::replace_with`]. On error `self` is
    /// untouched.
    pub fn restore(&mut self, document: &str) -> Result<(), MdmError> {
        let restored = self.restored_from(document)?;
        self.replace_with(restored);
        Ok(())
    }

    /// Replaces this whole system with `next` (a restore, the REPL's
    /// `setup`). Its epoch rises past the one it replaces, never below:
    /// when `next` is behind, it jumps there and the changefeed's horizon
    /// moves with it, so no cursor or cached plan mistakes the new state
    /// for an old one. The journal sink is `next`'s (none for a fresh or
    /// restored instance), as no journal op expresses a whole new state: a
    /// durable front end re-bases its store on the result
    /// ([`crate::MetaStore::rebase`]).
    pub fn replace_with(&mut self, mut next: Mdm) {
        next.ensure_epoch_at_least(self.epoch + 1);
        *self = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_rdf::vocab;
    use mdm_wrappers::football;

    fn ex(local: &str) -> Iri {
        Iri::new(format!("{}{local}", vocab::EXAMPLE_NS))
    }

    /// Sets up the full motivational use case through the facade, backed by
    /// the simulated football APIs.
    pub(crate) fn football_mdm() -> Mdm {
        let eco = football::build_default();
        let mut mdm = Mdm::new();
        let player = ex("Player");
        let team = vocab::schema::SPORTS_TEAM.iri();

        // (a) global graph.
        mdm.define_concept(&player).unwrap();
        mdm.define_concept(&team).unwrap();
        mdm.define_identifier(&player, &ex("playerId")).unwrap();
        mdm.define_feature(&player, &ex("playerName")).unwrap();
        mdm.define_feature(&player, &ex("height")).unwrap();
        mdm.define_feature(&player, &ex("weight")).unwrap();
        mdm.define_feature(&player, &ex("score")).unwrap();
        mdm.define_feature(&player, &ex("foot")).unwrap();
        mdm.define_identifier(&team, &ex("teamId")).unwrap();
        mdm.define_feature(&team, &ex("teamName")).unwrap();
        mdm.define_feature(&team, &ex("shortName")).unwrap();
        mdm.define_relation(&player, &ex("hasTeam"), &team).unwrap();

        // (b) sources + wrappers.
        mdm.add_source("PlayersAPI").unwrap();
        mdm.add_source("TeamsAPI").unwrap();
        mdm.register_wrapper(football::w1_players_v1(&eco)).unwrap();
        mdm.register_wrapper(football::w2_teams(&eco)).unwrap();

        // (c) LAV mappings (Figure 7).
        mdm.define_mapping(
            MappingBuilder::for_wrapper("w1")
                .cover_concept(&player)
                .cover_concept(&team)
                .cover_feature(&ex("playerId"))
                .cover_feature(&ex("playerName"))
                .cover_feature(&ex("height"))
                .cover_feature(&ex("weight"))
                .cover_feature(&ex("score"))
                .cover_feature(&ex("foot"))
                .cover_feature(&ex("teamId"))
                .cover_relation(&player, &ex("hasTeam"), &team)
                .same_as("id", &ex("playerId"))
                .same_as("pName", &ex("playerName"))
                .same_as("height", &ex("height"))
                .same_as("weight", &ex("weight"))
                .same_as("score", &ex("score"))
                .same_as("foot", &ex("foot"))
                .same_as("teamId", &ex("teamId")),
        )
        .unwrap();
        mdm.define_mapping(
            MappingBuilder::for_wrapper("w2")
                .cover_concept(&team)
                .cover_feature(&ex("teamId"))
                .cover_feature(&ex("teamName"))
                .cover_feature(&ex("shortName"))
                .same_as("id", &ex("teamId"))
                .same_as("name", &ex("teamName"))
                .same_as("shortName", &ex("shortName")),
        )
        .unwrap();
        mdm
    }

    #[test]
    fn end_to_end_figure8_query() {
        let mdm = football_mdm();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&vocab::schema::SPORTS_TEAM.iri(), &ex("teamName"))
            .relation(
                &ex("Player"),
                &ex("hasTeam"),
                &vocab::schema::SPORTS_TEAM.iri(),
            );
        let answer = mdm.query(&walk).unwrap();
        assert!(answer.table.len() >= 2);
        let rendered = answer.render();
        assert!(rendered.contains("Lionel Messi"));
        assert!(rendered.contains("FC Barcelona"));
        // v1 does not serve Zlatan (he ships on the v2 endpoint).
        assert!(!rendered.contains("Zlatan"));
    }

    #[test]
    fn governance_of_evolution_scenario() {
        // §3: release v2 with breaking changes, register w3 + mapping,
        // re-run the query — now both versions are fetched.
        let eco = football::build_default();
        let mut mdm = football_mdm();
        let player = ex("Player");
        let team = vocab::schema::SPORTS_TEAM.iri();
        mdm.define_feature(&player, &ex("nationality")).unwrap();
        mdm.register_wrapper(football::w3_players_v2(&eco)).unwrap();
        mdm.define_mapping(
            MappingBuilder::for_wrapper("w3")
                .cover_concept(&player)
                .cover_concept(&team)
                .cover_feature(&ex("playerId"))
                .cover_feature(&ex("playerName"))
                .cover_feature(&ex("height"))
                .cover_feature(&ex("weight"))
                .cover_feature(&ex("foot"))
                .cover_feature(&ex("nationality"))
                .cover_feature(&ex("teamId"))
                .cover_relation(&player, &ex("hasTeam"), &team)
                .same_as("id", &ex("playerId"))
                .same_as("pName", &ex("playerName"))
                .same_as("height", &ex("height"))
                .same_as("weight", &ex("weight"))
                .same_as("foot", &ex("foot"))
                .same_as("nationality", &ex("nationality"))
                .same_as("teamId", &ex("teamId")),
        )
        .unwrap();

        let walk = Walk::new()
            .feature(&player, &ex("playerName"))
            .feature(&team, &ex("teamName"))
            .relation(&player, &ex("hasTeam"), &team);
        let answer = mdm.query(&walk).unwrap();
        let rendered = answer.render();
        assert!(rendered.contains("Lionel Messi"), "{rendered}");
        assert!(rendered.contains("Zlatan Ibrahimovic"), "{rendered}");
        assert!(answer.rewriting.branch_count() >= 2);
        // The union of versions covers every distinct (player, team) pair —
        // DISTINCT collapses synthetic name collisions, so compare sets.
        let team_name = |id: i64| {
            eco.teams
                .iter()
                .find(|t| t.id == id)
                .map(|t| t.name.clone())
                .unwrap_or_default()
        };
        let expected: std::collections::BTreeSet<(String, String)> = eco
            .players
            .iter()
            .map(|p| (p.name.clone(), team_name(p.team_id)))
            .collect();
        assert_eq!(
            answer.table.len(),
            expected.len(),
            "union of versions covers every distinct (player, team) pair"
        );
    }

    #[test]
    fn renderings_are_nonempty() {
        let mdm = football_mdm();
        assert!(mdm.render_global_graph().contains("GLOBAL GRAPH"));
        assert!(mdm.render_source_graph().contains("PlayersAPI"));
        assert!(mdm.render_mappings().contains("named graph w1"));
        assert!(mdm.render_trig().contains("GRAPH"));
    }

    #[test]
    fn restore_preserves_epoch_continuity() {
        // The epoch travels in the *stamped* snapshot header: a restored
        // process continues the sequence instead of silently resetting to 0.
        let mdm = football_mdm();
        let epoch = mdm.epoch();
        assert!(epoch > 0);
        let restored = Mdm::restore_metadata(&mdm.snapshot_stamped()).unwrap();
        assert_eq!(restored.epoch(), epoch);
        // Re-snapshotting the restored state is a byte fixpoint, both for
        // the stamped form and the plain (epoch-free) form.
        assert_eq!(restored.snapshot_stamped(), mdm.snapshot_stamped());
        assert_eq!(restored.snapshot(), mdm.snapshot());
        // The plain form stays epoch-free: restoring it starts a fresh
        // sequence (the durable store always persists the stamped form).
        assert_eq!(Mdm::restore_metadata(&mdm.snapshot()).unwrap().epoch(), 0);
    }

    #[test]
    fn snapshot_round_trip_through_facade() {
        let mdm = football_mdm();
        let snap = mdm.snapshot();
        let restored = Mdm::restore_metadata(&snap).unwrap();
        assert_eq!(restored.ontology().concepts(), mdm.ontology().concepts());
        // Rewriting works on restored metadata (execution needs wrappers).
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&vocab::schema::SPORTS_TEAM.iri(), &ex("teamName"))
            .relation(
                &ex("Player"),
                &ex("hasTeam"),
                &vocab::schema::SPORTS_TEAM.iri(),
            );
        restored.rewrite(&walk).unwrap();
    }

    #[test]
    fn onboarding_pipeline_registers_and_maps() {
        // A fresh Teams-like source onboards fully automatically because its
        // attribute names match global features.
        let mut mdm = football_mdm();
        let mut endpoint = mdm_wrappers::RestSource::new("TeamsMirror");
        endpoint.publish(mdm_wrappers::Release {
            version: 1,
            format: mdm_wrappers::Format::Json,
            body: r#"[{"team_id":25,"team_name":"FC Barcelona","short_name":"FCB"}]"#.to_string(),
            notes: String::new(),
        });
        let config = r#"{
            "source": "TeamsMirror",
            "wrappers": [{
                "name": "wm1",
                "version": 1,
                "bindings": [
                    {"attribute": "teamId",    "column": "team_id"},
                    {"attribute": "teamName",  "column": "team_name"},
                    {"attribute": "shortName", "column": "short_name"}
                ]
            }]
        }"#;
        let reports = mdm.onboard_source(&endpoint, config).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].mapped, "report: {:?}", reports[0]);
        // The onboarded wrapper serves walks immediately.
        let walk = Walk::new().feature(&vocab::schema::SPORTS_TEAM.iri(), &ex("teamName"));
        let answer = mdm.query(&walk).unwrap();
        assert!(answer.rewriting.branch_count() >= 2); // w2 ∪ wm1
    }

    #[test]
    fn onboarding_reports_gaps_without_mapping() {
        let mut mdm = football_mdm();
        let mut endpoint = mdm_wrappers::RestSource::new("NamesOnly");
        endpoint.publish(mdm_wrappers::Release {
            version: 1,
            format: mdm_wrappers::Format::Json,
            body: r#"[{"team_name":"FC Barcelona"}]"#.to_string(),
            notes: String::new(),
        });
        let config = r#"{
            "source": "NamesOnly",
            "wrappers": [{
                "name": "wn1",
                "version": 1,
                "bindings": [{"attribute": "teamName", "column": "team_name"}]
            }]
        }"#;
        let reports = mdm.onboard_source(&endpoint, config).unwrap();
        assert!(!reports[0].mapped);
        assert_eq!(reports[0].identifier_gaps, vec!["sc:SportsTeam"]);
        // Registered but unmapped: metadata knows it, rewriting ignores it.
        assert!(mdm
            .ontology()
            .wrappers()
            .iter()
            .any(|w| w.local_name() == "wn1"));
    }

    #[test]
    fn epoch_increases_with_every_steward_call() {
        let mut mdm = Mdm::new();
        assert_eq!(mdm.epoch(), 0);
        mdm.define_concept(&ex("Player")).unwrap();
        let after_concept = mdm.epoch();
        assert!(after_concept > 0);
        mdm.define_feature(&ex("Player"), &ex("playerName"))
            .unwrap();
        let after_feature = mdm.epoch();
        assert!(after_feature > after_concept);
        // Failed mutations leave the epoch alone.
        assert!(mdm.define_feature(&ex("Ghost"), &ex("x")).is_err());
        assert_eq!(mdm.epoch(), after_feature);
        mdm.set_options(RewriteOptions::default());
        assert!(mdm.epoch() > after_feature);
    }

    #[test]
    fn cached_rewrite_hits_and_matches_uncached() {
        let mdm = football_mdm();
        let team = vocab::schema::SPORTS_TEAM.iri();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&team, &ex("teamName"))
            .relation(&ex("Player"), &ex("hasTeam"), &team);
        let fresh = mdm.rewrite(&walk).unwrap();
        let first = mdm.rewrite_cached(&walk).unwrap();
        let second = mdm.rewrite_cached(&walk).unwrap();
        assert_eq!(first.algebra(), fresh.algebra());
        assert_eq!(first.sparql, second.sparql);
        let stats = mdm.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The served path returns the same table as the cold reference,
        // and hands out the cached rewriting itself, not a copy of it.
        let served = mdm.query_degraded(&walk, Deadline::none()).unwrap();
        let reference = mdm.query(&walk).unwrap();
        assert_eq!(served.render(), reference.render());
        assert!(Arc::ptr_eq(&served.rewriting, &first));
        assert_eq!(mdm.cache_stats().hits, 2);
    }

    #[test]
    fn release_registration_invalidates_cached_plans() {
        // The governance scenario through the cached path: the post-release
        // rewriting must gain the new version's union branch, never serve
        // the pre-release plan.
        let eco = football::build_default();
        let mut mdm = football_mdm();
        let player = ex("Player");
        let team = vocab::schema::SPORTS_TEAM.iri();
        let walk = Walk::new()
            .feature(&player, &ex("playerName"))
            .feature(&team, &ex("teamName"))
            .relation(&player, &ex("hasTeam"), &team);
        let before = mdm.query_degraded(&walk, Deadline::none()).unwrap();
        let branches_before = before.rewriting.branch_count();
        assert!(!before.render().contains("Zlatan"));

        mdm.define_feature(&player, &ex("nationality")).unwrap();
        mdm.register_wrapper(football::w3_players_v2(&eco)).unwrap();
        mdm.define_mapping(
            MappingBuilder::for_wrapper("w3")
                .cover_concept(&player)
                .cover_concept(&team)
                .cover_feature(&ex("playerId"))
                .cover_feature(&ex("playerName"))
                .cover_feature(&ex("teamId"))
                .cover_relation(&player, &ex("hasTeam"), &team)
                .same_as("id", &ex("playerId"))
                .same_as("pName", &ex("playerName"))
                .same_as("teamId", &ex("teamId")),
        )
        .unwrap();

        let after = mdm.query_degraded(&walk, Deadline::none()).unwrap();
        assert!(after.rewriting.branch_count() > branches_before);
        assert!(after.render().contains("Zlatan Ibrahimovic"));
        assert!(mdm.cache_stats().invalidations >= 1);
    }

    #[test]
    fn stats_refresh_reoptimizes_without_a_metadata_release() {
        let mut mdm = football_mdm();
        // Isolated catalog: other tests in the process share the global one.
        let stats = Arc::new(StatsCatalog::new());
        mdm.set_stats_catalog(Arc::clone(&stats));
        let team = vocab::schema::SPORTS_TEAM.iri();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&team, &ex("teamName"))
            .relation(&ex("Player"), &ex("hasTeam"), &team);

        let before = mdm.query_degraded(&walk, Deadline::none()).unwrap();
        assert!(
            !stats.snapshot().relations.is_empty(),
            "execution feeds scan observations into the catalog"
        );

        // Steward refreshes statistics: the stats epoch moves, the
        // metadata epoch must not — a refresh is not a release.
        let metadata_epoch = mdm.epoch();
        let invalidations = mdm.cache_stats().invalidations;
        let hits = mdm.cache_stats().hits;
        let full_rewrites = mdm.cache_stats().full_rewrites;
        let stats_epoch = mdm.refresh_stats();
        assert_eq!(
            mdm.epoch(),
            metadata_epoch,
            "refresh must not touch metadata"
        );
        assert_eq!(mdm.stats_epoch(), stats_epoch);

        // The next query prepares its branch plans again against the
        // refreshed catalog; the cached rewriting keeps serving.
        let after = mdm.query_degraded(&walk, Deadline::none()).unwrap();
        assert_eq!(after.render(), before.render(), "results are unchanged");
        assert!(Arc::ptr_eq(&after.rewriting, &before.rewriting));
        let cache = mdm.cache_stats();
        assert_eq!(
            cache.invalidations, invalidations,
            "no rewriting entry was invalidated by the refresh"
        );
        assert_eq!(cache.full_rewrites, full_rewrites);
        assert!(cache.hits > hits, "the rewriting itself kept serving");
    }

    #[test]
    fn optimize_modes_agree_end_to_end() {
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&vocab::schema::SPORTS_TEAM.iri(), &ex("teamName"))
            .relation(
                &ex("Player"),
                &ex("hasTeam"),
                &vocab::schema::SPORTS_TEAM.iri(),
            );
        // Served vs cold reference, under every knob that may not change a
        // byte: optimizer on/off × pool/sequential.
        for mode in [OptimizeMode::Off, OptimizeMode::Cost] {
            for threads in [1, 4] {
                let mut mdm = football_mdm();
                mdm.set_optimize(mode);
                mdm.set_threads(threads);
                assert_eq!(mdm.optimize_mode(), mode);
                assert_eq!(
                    mdm.query_degraded(&walk, Deadline::none())
                        .unwrap()
                        .render(),
                    mdm.query(&walk).unwrap().render(),
                    "{mode} / {threads} thread(s)"
                );
            }
        }
    }

    #[test]
    fn explain_annotates_plan_operators_with_estimated_and_actual_rows() {
        let mut mdm = football_mdm();
        mdm.set_stats_catalog(Arc::new(StatsCatalog::new()));
        let team = vocab::schema::SPORTS_TEAM.iri();
        let walk = Walk::new()
            .feature(&ex("Player"), &ex("playerName"))
            .feature(&team, &ex("teamName"))
            .relation(&ex("Player"), &ex("hasTeam"), &team);
        // Warm the stats so the tree carries estimates, not just actuals.
        mdm.query(&walk).unwrap();
        let tree = mdm.explain_plan(&walk).unwrap();
        assert!(tree.contains("scan w1"), "{tree}");
        assert!(tree.contains("act="), "{tree}");
        assert!(tree.contains("est≈"), "{tree}");
    }

    #[test]
    fn registration_and_metadata_stay_consistent() {
        let mdm = football_mdm();
        // Every catalog wrapper has a source-graph node and vice versa.
        let metadata_wrappers: Vec<String> = mdm
            .ontology()
            .wrappers()
            .iter()
            .map(|w| w.local_name().to_string())
            .collect();
        let catalog_wrappers: Vec<String> = mdm
            .catalog()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(metadata_wrappers.len(), catalog_wrappers.len());
        for name in catalog_wrappers {
            assert!(metadata_wrappers.contains(&name));
        }
    }
}
