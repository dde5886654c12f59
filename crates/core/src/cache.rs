//! Footprint-validated rewrite-plan cache with surgical invalidation.
//!
//! Rewriting a walk is pure metadata work: its output depends only on the
//! ontology (global graph, source graph, mappings) and the rewrite options.
//! Both change *only* through steward calls, so the [`crate::Mdm`] facade
//! stamps every mutation with a monotonically increasing **metadata epoch**
//! and this cache keys plans by canonical walk, validated against the epoch.
//!
//! Validation by epoch equality alone would make *every* cached plan
//! unreachable after *any* steward mutation: under continuous source
//! evolution (the paper's core scenario) the hit rate would be 0%. Instead
//! each cached rewriting records the dependency [`Footprint`] it read
//! (concepts with their taxonomic closure, wrappers scanned), and every
//! committed mutation, with the footprint it wrote, **sweeps** the cache
//! once ([`PlanCache::note_mutation`]). That sweep is the only place a
//! verdict is made:
//!
//! * an entry the mutation does not overlap *slides forward* to the new
//!   epoch and keeps serving — a release of concept A leaves every plan
//!   over concepts B..Z hot;
//! * an entry a new mapping definition
//!   ([`crate::journal::MutationOp::is_extension`]) overlaps slides forward
//!   *pending*, collecting the mapping's concepts: its next lookup returns
//!   [`Found::Extend`], and the caller re-runs phase (b) for those concepts
//!   only and re-assembles (see [`crate::rewrite::assemble`]), splicing the
//!   new union branches in at a fraction of a cold rewrite;
//! * an entry any other mutation overlaps is dropped at once, so a plan for
//!   a retired dashboard does not pin memory until its key is looked up.
//!
//! Soundness rests on the sweep seeing every epoch. An entry slides only
//! from the epoch just before the mutation's; one that is not current
//! through it (the epoch jumped without the cache being told, as after a
//! restore) is dropped by the sweep, and a lookup at any epoch other than
//! the entry's drops it too. A stale union is never served. [`crate::Mdm`]
//! inserts and looks up at its current epoch and sweeps at every commit, so
//! a lookup only reads the verdict the last sweep left.
//!
//! The cache is LRU-bounded: an insert into a full cache evicts the entry
//! with the oldest use stamp, found by a scan (the default capacity is 256;
//! a deployment's distinct dashboard walks are far fewer). It is internally
//! synchronised by one mutex, so it serves concurrent analysts holding a
//! shared reference: many readers under an `RwLock` read guard in
//! `mdm-server`, all hitting the same cache.
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

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, Weak};

use mdm_relational::{OptimizeMode, StatsCatalog};

use crate::footprint::Footprint;
use crate::query::PreparedPlans;
use crate::rewrite::{RewriteArtifacts, Rewriting};

/// Default bound on cached plans; enough for every distinct dashboard query
/// of a deployment while keeping the worst-case memory small (plans are a
/// few KiB each).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

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
    /// Stale, but every overlapping mutation since the entry was cached was
    /// an extendable mapping definition: the caller can re-run phase (b)
    /// for `affected` concepts over the cached artifacts and re-assemble,
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

struct Entry {
    /// The epoch through which this entry is known valid. Each commit's
    /// sweep slides it forward or drops the entry.
    epoch: u64,
    /// `Some` once an extendable mutation overlapped this entry: the
    /// concepts of every such mutation since. The entry is stale (never
    /// served as a hit) but repairable via [`Found::Extend`].
    pending: Option<BTreeSet<String>>,
    plan: Arc<Rewriting>,
    /// Read footprint + reusable rewrite phases.
    artifacts: Arc<RewriteArtifacts>,
    /// `plan`'s prepared branch plans; a new entry starts a new slot.
    prepared: Arc<PreparedSlot>,
    /// Use stamp from `Inner::clock`: the LRU victim has the lowest.
    last_used: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    clock: u64,
    /// The counters; `entries` and `capacity` are filled in by
    /// [`PlanCache::stats`].
    stats: CacheStats,
}

/// The LRU-bounded, footprint-validated plan cache.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("plan cache poisoned")
    }

    /// Sweeps the entries for one mutation committed at `epoch` with
    /// `footprint`. An entry current through `epoch - 1` slides forward to
    /// `epoch`: pending, with the mutation's concepts added to its
    /// affected set, when `extension` and the footprints overlap; dropped
    /// when they overlap otherwise. An entry not current through
    /// `epoch - 1` is dropped: the cache cannot vouch for the epochs it was
    /// not told about. Entries already at or past `epoch` are left alone,
    /// so a repeated call changes nothing.
    pub fn note_mutation(&self, epoch: u64, footprint: Footprint, extension: bool) {
        let Inner { entries, stats, .. } = &mut *self.lock();
        entries.retain(|_, entry| {
            if entry.epoch >= epoch {
                return true;
            }
            if entry.epoch + 1 != epoch {
                stats.invalidations += 1;
                return false;
            }
            if footprint.overlaps(&entry.artifacts.footprint) {
                if !extension {
                    stats.invalidations += 1;
                    stats.surgical_invalidations += 1;
                    return false;
                }
                let affected = entry.pending.get_or_insert_with(BTreeSet::new);
                affected.extend(footprint.concepts.iter().cloned());
            } else if entry.pending.is_none() {
                stats.survivals += 1;
            }
            entry.epoch = epoch;
            true
        });
    }

    /// Returns the plan cached for `key` as of `epoch`: [`Found::Hit`]
    /// when the entry is current at `epoch`, [`Found::Extend`] when it is
    /// pending an extension, and [`Found::Miss`] when it is absent. An
    /// entry at any other epoch is dropped and reported as a miss.
    pub fn lookup(&self, key: &str, epoch: u64) -> Found {
        let Inner {
            entries,
            clock,
            stats,
        } = &mut *self.lock();
        let found = match entries.get_mut(key) {
            Some(entry) if entry.epoch == epoch => match &entry.pending {
                None => {
                    *clock += 1;
                    entry.last_used = *clock;
                    Found::Hit(Arc::clone(&entry.plan), Arc::clone(&entry.prepared))
                }
                Some(affected) => Found::Extend {
                    artifacts: Arc::clone(&entry.artifacts),
                    affected: affected.clone(),
                },
            },
            Some(_) => {
                entries.remove(key);
                stats.invalidations += 1;
                Found::Miss
            }
            None => Found::Miss,
        };
        if matches!(found, Found::Hit(..)) {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        found
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
        let Inner {
            entries,
            clock,
            stats,
        } = &mut *self.lock();
        if extended {
            stats.incremental_extensions += 1;
        } else {
            stats.full_rewrites += 1;
        }
        if !entries.contains_key(&key) && entries.len() >= self.capacity {
            let victim = entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(victim, _)| victim.clone());
            if let Some(victim) = victim {
                entries.remove(&victim);
                stats.evictions += 1;
            }
        }
        *clock += 1;
        let prepared = Arc::new(PreparedSlot::default());
        let entry = Entry {
            epoch,
            pending: None,
            plan,
            artifacts,
            prepared: Arc::clone(&prepared),
            last_used: *clock,
        };
        entries.insert(key, entry);
        prepared
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.entries.len(),
            capacity: self.capacity,
            ..inner.stats
        }
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
        // No `note_mutation` ran, so the cache cannot vouch for epoch 2:
        // the entry must invalidate conservatively.
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
        // Epoch jumps to 10 without noted mutations in between: the old
        // entry cannot be vouched for, and the sweep drops it.
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
