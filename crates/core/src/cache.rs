//! Footprint-validated rewrite-plan cache with surgical invalidation.
//!
//! Rewriting a walk is pure metadata work: its output depends only on the
//! ontology (global graph, source graph, mappings) and the rewrite options.
//! Both change *only* through steward calls, so the [`crate::Mdm`] facade
//! stamps every mutation with a monotonically increasing **metadata epoch**
//! and this cache keys plans by canonical walk, validated against the epoch.
//!
//! Historically validation was equality — `entry.epoch == lookup.epoch` —
//! which made *every* cached plan unreachable after *any* steward mutation:
//! under continuous source evolution (the paper's core scenario) the cache
//! degenerated to a 0% hit rate. Validation is now an **epoch-interval
//! test** against a bounded, append-only **invalidation log**: each cached
//! rewriting records the dependency [`Footprint`] it read (concepts with
//! their taxonomic closure, wrappers scanned), each mutation records the
//! footprint it wrote, and an entry from an older epoch survives iff every
//! logged mutation in `(entry.epoch, lookup.epoch]` is disjoint from the
//! entry's footprint — in which case the entry *slides forward* to the
//! lookup epoch and keeps serving. A release of concept A leaves every plan
//! over concepts B..Z hot.
//!
//! Soundness rests on two properties. First, the log is append-only and
//! epochs increase strictly, so the interval `(entry.epoch, lookup.epoch]`
//! enumerates *exactly* the mutations committed since the entry was (last
//! known) valid — nothing can be inserted behind the cursor. Second,
//! whenever coverage is uncertain — the entry predates the log's retained
//! horizon, the lookup epoch is beyond the logged frontier (an epoch jump
//! the cache was not told about), or the entry has no recorded footprint —
//! the cache invalidates conservatively. A stale union is never served.
//!
//! When the only overlapping mutations are new mapping definitions
//! ([`crate::journal::MutationOp::is_extension`]), the cache returns
//! [`Found::Extend`] instead of a miss: the caller re-runs phase (b) for
//! the affected concepts only and re-assembles (see
//! [`crate::rewrite::assemble`]), splicing the new union branches in at a
//! fraction of a cold rewrite.
//!
//! The cache is LRU-bounded — the victim scan is O(log n) via an ordered
//! `(last_used, key)` index, not a full-map sweep — and internally
//! synchronised, so it serves concurrent analysts holding a shared
//! reference: many readers under an `RwLock` read guard in `mdm-server`,
//! all hitting the same cache. Mutations eagerly sweep overlapping entries
//! (so invalidated plans for retired dashboards are reclaimed immediately
//! instead of pinning memory until their key is looked up again) and slide
//! disjoint entries forward, keeping the common lookup on the equality
//! fast path.
//!
//! Each entry also owns a **prepared slot**: the rewriting's branch plans
//! as the served path runs them ([`PreparedPlans`]), with the key they
//! were optimized against — one stats catalog, one
//! [`OptimizeMode`], one catalog version. [`crate::Mdm`] fills the slot on
//! the first query and fills it again whenever the key no longer matches,
//! so a warm query reuses them and a query after `refresh_stats`, a new
//! observation, `set_optimize` or `set_stats_catalog` gets what inline
//! optimization would give it. The plans live and die with the entry:
//! eviction, invalidation and replacement (an incremental extension
//! included) drop them. Reading or filling the slot moves no counter.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use mdm_relational::{OptimizeMode, StatsCatalog};

use crate::footprint::Footprint;
use crate::query::PreparedPlans;
use crate::rewrite::{RewriteArtifacts, Rewriting};

/// Default bound on cached plans; enough for every distinct dashboard query
/// of a deployment while keeping the worst-case memory small (plans are a
/// few KiB each).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Bound on the invalidation log. Entries older than the retained window
/// invalidate conservatively, so this trades memory for how long an idle
/// plan can survive without a lookup.
pub const INVALIDATION_LOG_CAPACITY: usize = 1024;

/// A point-in-time view of the cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (including footprint survivals).
    pub hits: u64,
    /// Lookups that had to rewrite (absent key, stale entry, extension).
    pub misses: u64,
    /// Entries dropped because a mutation (or unprovable validity) made
    /// them stale.
    pub invalidations: u64,
    /// Entries dropped to make room (LRU policy).
    pub evictions: u64,
    /// Entries dropped because a mutation's footprint overlapped theirs.
    pub surgical_invalidations: u64,
    /// Entry×mutation events where a disjoint footprint let a cached plan
    /// stay hot across a steward mutation.
    pub survivals: u64,
    /// Stale entries refreshed by incremental UCQ extension (phase (b)
    /// re-run for affected concepts only).
    pub incremental_extensions: u64,
    /// Cold rewrites performed through the cached path.
    pub full_rewrites: u64,
    /// Live entries.
    pub entries: usize,
    /// Configured bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over total lookups; 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of a cache lookup.
pub enum Found {
    /// Valid at the lookup epoch (directly or by footprint survival): the
    /// rewriting and its entry's prepared slot.
    Hit(Arc<Rewriting>, Arc<PreparedSlot>),
    /// Stale, but every overlapping mutation since the entry's epoch was an
    /// extendable mapping definition: the caller can re-run phase (b) for
    /// `affected` concepts over the cached artifacts and re-assemble,
    /// then store the result with [`PlanCache::insert`] as `extended`.
    Extend {
        /// The reusable phase (a)/(b) artifacts.
        artifacts: Arc<RewriteArtifacts>,
        /// Concepts (IRI text) the intervening mappings cover.
        affected: BTreeSet<String>,
    },
    /// Absent or irrecoverably stale: rewrite from scratch.
    Miss,
}

/// What a prepared set was optimized against. The catalog is compared by
/// identity; the `Weak` keeps its allocation, so a later catalog cannot
/// take its address.
pub(crate) struct PreparedKey {
    pub stats: Weak<StatsCatalog>,
    pub mode: OptimizeMode,
    pub version: u64,
}

impl PreparedKey {
    /// True when plans prepared under `self` are what `mode` and `stats`
    /// at `version` would produce.
    pub fn matches(&self, stats: &Arc<StatsCatalog>, mode: OptimizeMode, version: u64) -> bool {
        self.mode == mode && self.version == version && self.stats.as_ptr() == Arc::as_ptr(stats)
    }
}

/// One entry's prepared branch plans, empty until [`crate::Mdm`]'s first
/// query of the entry fills it.
#[derive(Default)]
pub struct PreparedSlot(pub(crate) Mutex<Option<(PreparedKey, Arc<PreparedPlans>)>>);

struct LoggedMutation {
    epoch: u64,
    footprint: Footprint,
    extension: bool,
}

struct Entry {
    /// The epoch through which this entry is known valid. Slides forward
    /// when mutations prove disjoint.
    epoch: u64,
    /// True when an extendable mutation overlapped this entry: it is stale
    /// (must not be served as a hit) but repairable via [`Found::Extend`].
    pending: bool,
    plan: Arc<Rewriting>,
    /// Read footprint + reusable rewrite phases.
    artifacts: Arc<RewriteArtifacts>,
    /// `plan`'s prepared branch plans; a new entry starts a new slot.
    prepared: Arc<PreparedSlot>,
    last_used: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    /// `(last_used, key)` index over `entries`: the LRU victim is
    /// `lru.first()` — O(log n), not a full-map scan.
    lru: BTreeSet<(u64, String)>,
    clock: u64,
    /// The invalidation log: footprints of committed mutations, epochs
    /// strictly increasing (append-only).
    log: VecDeque<LoggedMutation>,
    /// Epochs `<= floor` have fallen off the log (or were never covered):
    /// entries from them invalidate conservatively.
    floor: u64,
    /// The highest epoch the log covers; lookups beyond it invalidate
    /// conservatively (an epoch jump the cache was not told about).
    frontier: u64,
}

/// The LRU-bounded, footprint-validated plan cache.
pub struct PlanCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    surgical_invalidations: AtomicU64,
    survivals: AtomicU64,
    incremental_extensions: AtomicU64,
    full_rewrites: AtomicU64,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            surgical_invalidations: AtomicU64::new(0),
            survivals: AtomicU64::new(0),
            incremental_extensions: AtomicU64::new(0),
            full_rewrites: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                lru: BTreeSet::new(),
                clock: 0,
                log: VecDeque::new(),
                floor: 0,
                frontier: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("plan cache poisoned")
    }

    /// Records one committed mutation in the invalidation log and sweeps
    /// the entries: overlapping entries are dropped (or marked pending
    /// extension when the mutation is an extendable mapping definition and
    /// the entry kept its artifacts), disjoint current entries slide
    /// forward to `epoch`. The eager sweep is what fixes the historical
    /// stale-entry leak — an invalidated plan is reclaimed at mutation
    /// time, not when (if ever) its key is looked up again.
    ///
    /// Epochs at or below the logged frontier are ignored (idempotent
    /// replay); a gap above the frontier truncates coverage, so entries
    /// predating the gap invalidate conservatively.
    pub fn note_mutation(&self, epoch: u64, footprint: Footprint, extension: bool) {
        let inner = &mut *self.lock();
        if epoch <= inner.frontier {
            return;
        }
        if epoch > inner.frontier + 1 {
            // The cache was not told about epochs (frontier, epoch): it
            // cannot vouch for them. Restart coverage at the gap's edge.
            inner.log.clear();
            inner.floor = epoch - 1;
        }
        inner.log.push_back(LoggedMutation {
            epoch,
            footprint: footprint.clone(),
            extension,
        });
        inner.frontier = epoch;
        while inner.log.len() > INVALIDATION_LOG_CAPACITY {
            if let Some(dropped) = inner.log.pop_front() {
                inner.floor = dropped.epoch;
            }
        }
        let mut dropped: Vec<String> = Vec::new();
        let mut survived = 0u64;
        for (key, entry) in inner.entries.iter_mut() {
            if entry.epoch >= epoch {
                continue;
            }
            if !footprint.overlaps(&entry.artifacts.footprint) {
                // Disjoint: slide forward, but only entries provably
                // current through the predecessor epoch; anything else is
                // resolved by the interval test at lookup.
                if !entry.pending && entry.epoch == epoch - 1 {
                    entry.epoch = epoch;
                    survived += 1;
                }
            } else if extension {
                entry.pending = true;
            } else {
                dropped.push(key.clone());
            }
        }
        let overlapped = dropped.len() as u64;
        for key in dropped {
            remove_entry(inner, &key);
        }
        self.survivals.fetch_add(survived, Ordering::Relaxed);
        self.invalidations.fetch_add(overlapped, Ordering::Relaxed);
        self.surgical_invalidations
            .fetch_add(overlapped, Ordering::Relaxed);
    }

    /// Validates and returns the plan cached for `key` as of `epoch`.
    ///
    /// * Same epoch → [`Found::Hit`].
    /// * Older epoch, every logged mutation in `(entry.epoch, epoch]`
    ///   disjoint from the entry's footprint → the entry slides forward
    ///   and serves ([`Found::Hit`], counted as a survival).
    /// * Older epoch, overlapping mutations all extendable →
    ///   [`Found::Extend`].
    /// * Anything else — including intervals the log cannot vouch for —
    ///   drops the entry conservatively and reports [`Found::Miss`].
    pub fn lookup(&self, key: &str, epoch: u64) -> Found {
        let inner = &mut *self.lock();
        let Some(entry) = inner.entries.get(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Found::Miss;
        };
        if entry.epoch == epoch && !entry.pending {
            let hit = Found::Hit(Arc::clone(&entry.plan), Arc::clone(&entry.prepared));
            touch_entry(inner, key);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // The interval test. Refuse to speculate when the log does not
        // cover (entry.epoch, epoch].
        let covered = epoch >= entry.epoch && entry.epoch >= inner.floor && epoch <= inner.frontier;
        if !covered {
            remove_entry(inner, key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Found::Miss;
        }
        let artifacts = Arc::clone(&entry.artifacts);
        let overlapping: Vec<&LoggedMutation> = inner
            .log
            .iter()
            .filter(|m| {
                m.epoch > entry.epoch
                    && m.epoch <= epoch
                    && m.footprint.overlaps(&artifacts.footprint)
            })
            .collect();
        if overlapping.is_empty() {
            self.survivals.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            let hit = {
                let entry = inner.entries.get_mut(key).expect("present above");
                entry.epoch = epoch;
                entry.pending = false;
                Found::Hit(Arc::clone(&entry.plan), Arc::clone(&entry.prepared))
            };
            touch_entry(inner, key);
            return hit;
        }
        if overlapping.iter().all(|m| m.extension) {
            let affected: BTreeSet<String> = overlapping
                .iter()
                .flat_map(|m| m.footprint.concepts.iter().cloned())
                .collect();
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Found::Extend {
                artifacts,
                affected,
            };
        }
        remove_entry(inner, key);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        self.surgical_invalidations.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Found::Miss
    }

    /// Caches `plan` for `key` as of `epoch` with its artifacts (read
    /// footprint + reusable phases), replacing any entry for `key`:
    /// a cold rewrite, or with `extended` the result of an incremental UCQ
    /// extension (see [`Found::Extend`]). Returns the new entry's (empty)
    /// prepared slot.
    pub fn insert(
        &self,
        key: String,
        epoch: u64,
        plan: Arc<Rewriting>,
        artifacts: Arc<RewriteArtifacts>,
        extended: bool,
    ) -> Arc<PreparedSlot> {
        let counter = if extended {
            &self.incremental_extensions
        } else {
            &self.full_rewrites
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let inner = &mut *self.lock();
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            if let Some((_, victim)) = inner.lru.pop_first() {
                inner.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.clock += 1;
        let last_used = inner.clock;
        let prepared = Arc::new(PreparedSlot::default());
        if let Some(old) = inner.entries.insert(
            key.clone(),
            Entry {
                epoch,
                pending: false,
                plan,
                artifacts,
                prepared: Arc::clone(&prepared),
                last_used,
            },
        ) {
            inner.lru.remove(&(old.last_used, key.clone()));
        }
        inner.lru.insert((last_used, key));
        prepared
    }

    /// Drops every entry (counters and the invalidation log are preserved).
    pub fn clear(&self) {
        let inner = &mut *self.lock();
        inner.entries.clear();
        inner.lru.clear();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            surgical_invalidations: self.surgical_invalidations.load(Ordering::Relaxed),
            survivals: self.survivals.load(Ordering::Relaxed),
            incremental_extensions: self.incremental_extensions.load(Ordering::Relaxed),
            full_rewrites: self.full_rewrites.load(Ordering::Relaxed),
            entries: self.lock().entries.len(),
            capacity: self.capacity,
        }
    }
}

/// Removes one entry and its LRU index pair.
fn remove_entry(inner: &mut Inner, key: &str) -> Option<Entry> {
    let entry = inner.entries.remove(key)?;
    inner.lru.remove(&(entry.last_used, key.to_string()));
    Some(entry)
}

/// Refreshes one entry's recency in the LRU index.
fn touch_entry(inner: &mut Inner, key: &str) {
    inner.clock += 1;
    let clock = inner.clock;
    if let Some(entry) = inner.entries.get_mut(key) {
        inner.lru.remove(&(entry.last_used, key.to_string()));
        entry.last_used = clock;
        inner.lru.insert((clock, key.to_string()));
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_plan(tag: &str) -> Arc<Rewriting> {
        Arc::new(Rewriting {
            queries: Vec::new(),
            distinct: true,
            sparql: String::new(),
            output_columns: vec![tag.to_string()],
            expanded_identifiers: Vec::new(),
            covered_by: Vec::new(),
        })
    }

    fn dummy_artifacts(concepts: &[&str], wrappers: &[&str]) -> Arc<RewriteArtifacts> {
        Arc::new(RewriteArtifacts {
            expanded: crate::expansion::ExpandedWalk {
                walk: crate::walk::Walk::new(),
                added_identifiers: Vec::new(),
            },
            alternatives: Default::default(),
            footprint: Footprint {
                concepts: concepts.iter().map(|s| s.to_string()).collect(),
                wrappers: wrappers.iter().map(|s| s.to_string()).collect(),
                global: false,
            },
        })
    }

    /// Caches a cold rewrite tagged `tag` under `key` as of `epoch`.
    fn put(
        cache: &PlanCache,
        key: &str,
        epoch: u64,
        tag: &str,
        artifacts: Arc<RewriteArtifacts>,
    ) -> Arc<PreparedSlot> {
        cache.insert(key.into(), epoch, dummy_plan(tag), artifacts, false)
    }

    /// Artifacts whose footprint no mutation overlaps.
    fn no_artifacts() -> Arc<RewriteArtifacts> {
        dummy_artifacts(&[], &[])
    }

    /// The hit's rewriting, if the lookup hit.
    fn hit(found: Found) -> Option<Arc<Rewriting>> {
        match found {
            Found::Hit(plan, _) => Some(plan),
            _ => None,
        }
    }

    fn fp(concepts: &[&str]) -> Footprint {
        Footprint {
            concepts: concepts.iter().map(|s| s.to_string()).collect(),
            ..Footprint::default()
        }
    }

    #[test]
    fn hit_after_insert_at_same_epoch() {
        let cache = PlanCache::new(4);
        assert!(hit(cache.lookup("q", 1)).is_none());
        put(&cache, "q", 1, "w1", no_artifacts());
        let cached = hit(cache.lookup("q", 1)).expect("cached");
        assert_eq!(cached.output_columns, vec!["w1".to_string()]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn epoch_bump_invalidates_without_log_coverage() {
        // No `note_mutation` ran, so the log cannot vouch for the interval
        // (1, 2]: the entry must invalidate conservatively.
        let cache = PlanCache::new(4);
        put(&cache, "q", 1, "old", no_artifacts());
        assert!(
            hit(cache.lookup("q", 2)).is_none(),
            "stale plan must not serve"
        );
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0, "stale entry is dropped eagerly");
    }

    #[test]
    fn disjoint_footprint_survives_and_slides_forward() {
        let cache = PlanCache::new(4);
        put(&cache, "q", 1, "w1", dummy_artifacts(&["A"], &["w1"]));
        cache.note_mutation(2, fp(&["B"]), false);
        assert!(hit(cache.lookup("q", 2)).is_some(), "disjoint ⇒ survive");
        let stats = cache.stats();
        assert_eq!(stats.survivals, 1, "sweep slid the entry forward");
        assert_eq!(stats.surgical_invalidations, 0);
        // A later overlapping mutation still invalidates.
        cache.note_mutation(3, fp(&["A"]), false);
        assert!(hit(cache.lookup("q", 3)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.surgical_invalidations, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn mutation_sweep_reclaims_overlapping_entries_eagerly() {
        // The historical leak: an invalidated entry for a retired dashboard
        // stayed pinned until its exact key was looked up again. The sweep
        // drops it at mutation time.
        let cache = PlanCache::new(8);
        put(&cache, "a", 1, "a", dummy_artifacts(&["A"], &[]));
        put(&cache, "b", 1, "b", dummy_artifacts(&["B"], &[]));
        cache.note_mutation(2, fp(&["A"]), false);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "overlapping entry reclaimed on commit");
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.surgical_invalidations, 1);
        assert!(hit(cache.lookup("b", 2)).is_some(), "disjoint entry hot");
    }

    #[test]
    fn extendable_mutation_reports_extend_with_affected_concepts() {
        let cache = PlanCache::new(4);
        put(&cache, "q", 1, "w1", dummy_artifacts(&["A"], &["w1"]));
        let mut mapping = fp(&["A"]);
        mapping.wrappers.insert("w9".into());
        cache.note_mutation(2, mapping, true);
        match cache.lookup("q", 2) {
            Found::Extend { affected, .. } => {
                assert_eq!(affected, ["A".to_string()].into_iter().collect());
            }
            _ => panic!("expected Extend"),
        }
        // The extended result replaces the stale entry and serves.
        cache.insert(
            "q".into(),
            2,
            dummy_plan("w1w9"),
            dummy_artifacts(&["A"], &["w1", "w9"]),
            true,
        );
        assert!(hit(cache.lookup("q", 2)).is_some());
        assert_eq!(cache.stats().incremental_extensions, 1);
    }

    #[test]
    fn extension_then_breaking_mutation_invalidates() {
        let cache = PlanCache::new(4);
        put(&cache, "q", 1, "w1", dummy_artifacts(&["A"], &["w1"]));
        cache.note_mutation(2, fp(&["A"]), true); // extendable
        cache.note_mutation(3, fp(&["A"]), false); // breaking
        assert!(hit(cache.lookup("q", 3)).is_none());
        assert!(cache.stats().surgical_invalidations >= 1);
    }

    #[test]
    fn epoch_gap_truncates_log_coverage() {
        let cache = PlanCache::new(4);
        put(&cache, "q", 1, "w1", dummy_artifacts(&["A"], &[]));
        cache.note_mutation(2, fp(&["B"]), false);
        // Epoch jumps to 10 without noted mutations in between: coverage
        // restarts, and the old entry cannot be vouched for.
        cache.note_mutation(10, fp(&["B"]), false);
        assert!(hit(cache.lookup("q", 10)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        // Entries inserted after the gap validate normally.
        put(&cache, "r", 10, "w2", dummy_artifacts(&["C"], &[]));
        cache.note_mutation(11, fp(&["B"]), false);
        assert!(hit(cache.lookup("r", 11)).is_some());
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache = PlanCache::new(2);
        put(&cache, "a", 1, "a", no_artifacts());
        put(&cache, "b", 1, "b", no_artifacts());
        cache.lookup("a", 1); // refresh a; b is now least recently used
        put(&cache, "c", 1, "c", no_artifacts());
        assert!(hit(cache.lookup("a", 1)).is_some());
        assert!(hit(cache.lookup("b", 1)).is_none(), "b was evicted");
        assert!(hit(cache.lookup("c", 1)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    /// Fills `slot` with an empty prepared set and returns a weak handle
    /// to it: it upgrades exactly while something still owns the plans.
    fn prepare(slot: &PreparedSlot) -> Weak<PreparedPlans> {
        let stats = Arc::new(StatsCatalog::new());
        let plans = Arc::new(PreparedPlans {
            branches: Vec::new(),
        });
        let key = PreparedKey {
            stats: Arc::downgrade(&stats),
            mode: OptimizeMode::Cost,
            version: stats.version(),
        };
        assert!(key.matches(&stats, OptimizeMode::Cost, 0));
        assert!(!key.matches(&stats, OptimizeMode::Off, 0));
        assert!(!key.matches(&stats, OptimizeMode::Cost, 1));
        assert!(!key.matches(&Arc::new(StatsCatalog::new()), OptimizeMode::Cost, 0));
        let weak = Arc::downgrade(&plans);
        *slot.0.lock().unwrap() = Some((key, plans));
        weak
    }

    /// The prepared plans belong to the entry: evicting it, invalidating
    /// it or replacing it drops them, and a hit hands out the same slot
    /// without moving a counter.
    #[test]
    fn an_entry_that_leaves_the_cache_drops_its_prepared_plans() {
        let cache = PlanCache::new(1);
        let artifacts = || dummy_artifacts(&["A"], &["w1"]);
        let slot = put(&cache, "a", 1, "a", artifacts());
        let plans = prepare(&slot);
        drop(slot);
        let before = cache.stats();
        let Found::Hit(_, again) = cache.lookup("a", 1) else {
            panic!("expected a hit");
        };
        assert!(again.0.lock().unwrap().is_some(), "the same slot, filled");
        drop(again);
        assert_eq!(
            cache.stats().hits,
            before.hits + 1,
            "only the lookup counts"
        );
        // Evicted: capacity 1, another key arrives.
        put(&cache, "b", 1, "b", no_artifacts());
        assert!(plans.upgrade().is_none(), "eviction dropped the plans");

        // Invalidated by an overlapping mutation's sweep.
        let cache = PlanCache::new(4);
        let plans = prepare(&put(&cache, "a", 1, "a", artifacts()));
        cache.note_mutation(2, fp(&["A"]), false);
        assert!(plans.upgrade().is_none(), "invalidation dropped the plans");

        // Replaced by an incremental extension: the new entry starts empty.
        let plans = prepare(&put(&cache, "a", 2, "a", artifacts()));
        cache.note_mutation(3, fp(&["A"]), true);
        assert!(matches!(cache.lookup("a", 3), Found::Extend { .. }));
        let slot = cache.insert("a".into(), 3, dummy_plan("a2"), artifacts(), true);
        assert!(plans.upgrade().is_none(), "the extension dropped the plans");
        assert!(slot.0.lock().unwrap().is_none());
    }

    #[test]
    fn capacity_minimum_is_one() {
        let cache = PlanCache::new(0);
        put(&cache, "a", 1, "a", no_artifacts());
        assert!(hit(cache.lookup("a", 1)).is_some());
        assert_eq!(cache.stats().capacity, 1);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = PlanCache::new(4);
        put(&cache, "a", 1, "a", no_artifacts());
        cache.lookup("a", 1);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn shared_across_threads() {
        let cache = Arc::new(PlanCache::new(16));
        put(&cache, "q", 1, "w", no_artifacts());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert!(hit(cache.lookup("q", 1)).is_some());
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(cache.stats().hits, 400);
    }
}
