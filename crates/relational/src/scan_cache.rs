//! The per-query scan cache: each relation is fetched once per query.
//!
//! A UCQ rewriting routinely references one wrapper from many branches
//! (every version-pair combination re-scans the shared side), and before
//! this cache each branch paid a full fetch — a drawn fate, retries,
//! breaker bookkeeping — of its own. Entries are keyed by `(relation,
//! provider version, metadata epoch)` so a stale executor can never serve
//! a scan across a version bump or a steward mutation, and the fill is
//! *once-only under concurrency*: branch workers racing for the same
//! wrapper serialise on the entry slot, the first fills it (paying retries
//! and breaker bookkeeping exactly once per wrapper per query), the rest
//! clone the `Arc`.
//!
//! A slot holds the provider's term columns as they were handed out
//! ([`RelationProvider::columns`](crate::RelationProvider::columns) — for
//! a wrapper the set it keeps resident per release, so a warm query
//! neither clones rows nor encodes). The cache itself owns no data beyond
//! the query: residency, and with it invalidation, belongs to the provider
//! instance.
//!
//! Errors are cached too — deliberately. A wrapper that failed terminally
//! fails every branch that references it with the *same* error, which is
//! what makes degraded-mode completeness reports identical between
//! sequential and parallel execution.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::columnar::TypedColumn;
use crate::executor::ExecError;

/// A relation's rows encoded column-major as shared term columns.
pub type EncodedScan = Arc<Vec<Arc<TypedColumn>>>;

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct ScanKey {
    relation: String,
    version: u64,
    epoch: u64,
}

/// The memo of one fetch: empty until the first caller fills it, then
/// that outcome — success or error — for every later one.
type Slot = Mutex<Option<Result<(EncodedScan, usize), ExecError>>>;

/// Hit/miss counters for one query's cache, for tests and metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanCacheStats {
    /// Fetches answered from the cache.
    pub hits: u64,
    /// Fetches that had to run the provider.
    pub misses: u64,
}

/// A per-query cache of materialised scans. See the module docs.
#[derive(Default)]
pub struct ScanCache {
    entries: Mutex<HashMap<ScanKey, Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ScanCache {
    /// An empty cache (one per query execution).
    pub fn new() -> Self {
        ScanCache::default()
    }

    /// The entry slot for `(relation, version, epoch)`, created empty on
    /// first sight. The map lock is held only for the lookup; fills
    /// serialise on the slot's own lock.
    fn slot(&self, relation: &str, version: u64, epoch: u64) -> Arc<Slot> {
        let mut entries = self.entries.lock().expect("scan cache poisoned");
        Arc::clone(
            entries
                .entry(ScanKey {
                    relation: relation.to_string(),
                    version,
                    epoch,
                })
                .or_default(),
        )
    }

    /// The relation as shared term columns plus its row count, exactly as
    /// `fetch` (the provider's `columns()` behind the executor's resilient
    /// loop) returned them. `fetch` runs only if no entry for `(relation,
    /// version, epoch)` is filled yet, once whatever its outcome;
    /// concurrent callers block on the filling one and share its result.
    pub fn fetch_or_insert_columns(
        &self,
        relation: &str,
        version: u64,
        epoch: u64,
        fetch: impl FnOnce() -> Result<(EncodedScan, usize), ExecError>,
    ) -> Result<(EncodedScan, usize), ExecError> {
        let slot = self.slot(relation, version, epoch);
        let mut result = slot.lock().expect("scan cache slot poisoned");
        match &*result {
            Some(cached) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cached.clone()
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let fetched = fetch();
                *result = Some(fetched.clone());
                fetched
            }
        }
    }

    /// Lifetime hit/miss counts.
    pub fn stats(&self) -> ScanCacheStats {
        ScanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// A one-column relation holding `n`, as a fetch returns it.
    fn scan(n: i64) -> Result<(EncodedScan, usize), ExecError> {
        let columns = crate::columnar::encode_rows(&[vec![Value::Int(n)]], 1);
        Ok((Arc::new(columns), 1))
    }

    #[test]
    fn second_fetch_for_same_key_is_a_hit() {
        let cache = ScanCache::new();
        let (a, _) = cache
            .fetch_or_insert_columns("w1", 1, 0, || scan(1))
            .unwrap();
        let (b, _) = cache
            .fetch_or_insert_columns("w1", 1, 0, || panic!("must not refetch"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            ScanCacheStats {
                hits: 1,
                misses: 2 - 1
            }
        );
    }

    #[test]
    fn version_and_epoch_partition_the_key_space() {
        let cache = ScanCache::new();
        cache
            .fetch_or_insert_columns("w1", 1, 0, || scan(1))
            .unwrap();
        cache
            .fetch_or_insert_columns("w1", 2, 0, || scan(2))
            .unwrap();
        cache
            .fetch_or_insert_columns("w1", 1, 7, || scan(3))
            .unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn errors_are_cached_and_replayed() {
        let cache = ScanCache::new();
        let first =
            cache.fetch_or_insert_columns("dead", 1, 0, || Err(ExecError::permanent("gone")));
        assert!(first.is_err());
        let second = cache.fetch_or_insert_columns("dead", 1, 0, || panic!("must not refetch"));
        assert_eq!(second.unwrap_err(), ExecError::permanent("gone"));
        assert_eq!(cache.stats(), ScanCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn columnar_slot_holds_the_fetched_columns_as_they_are() {
        let cache = ScanCache::new();
        let rows = [vec![Value::Int(1)], vec![Value::Int(2)]];
        let resident: EncodedScan = Arc::new(crate::columnar::encode_rows(&rows, 1));
        let (first, len) = cache
            .fetch_or_insert_columns("w", 1, 0, || Ok((Arc::clone(&resident), 2)))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &resident));
        assert_eq!(len, 2);
        let (second, _) = cache
            .fetch_or_insert_columns("w", 1, 0, || panic!("must not refetch"))
            .unwrap();
        assert!(Arc::ptr_eq(&second, &resident));
        assert_eq!(cache.stats(), ScanCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn concurrent_fetchers_fill_once() {
        let cache = ScanCache::new();
        let fetches = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache
                        .fetch_or_insert_columns("w", 1, 0, || {
                            fetches.fetch_add(1, Ordering::Relaxed);
                            scan(9)
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(fetches.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
