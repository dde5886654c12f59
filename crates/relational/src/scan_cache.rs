//! The per-query scan cache: each relation is fetched once per query.
//!
//! A UCQ rewriting routinely references one wrapper from many branches
//! (every version-pair combination re-scans the shared side), and before
//! this cache each branch paid a full fetch + parse + type pass. Entries
//! are keyed by `(relation, provider version, metadata epoch)` so a stale
//! executor can never serve rows across a version bump or a steward
//! mutation, and the fill is *once-only under concurrency*: branch workers
//! racing for the same wrapper serialise on the entry slot, the first
//! fills it (paying retries and breaker bookkeeping exactly once per
//! wrapper per query), the rest clone the `Arc`.
//!
//! Errors are cached too — deliberately. A wrapper that failed terminally
//! fails every branch that references it with the *same* error, which is
//! what makes degraded-mode completeness reports identical between
//! sequential and parallel execution.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::columnar::{self, TypedColumn};
use crate::executor::ExecError;
use crate::value::Tuple;

/// A relation's rows encoded column-major as shared term columns.
pub type EncodedScan = Arc<Vec<Arc<TypedColumn>>>;

#[derive(Clone, Debug, Hash, PartialEq, Eq)]
struct ScanKey {
    relation: String,
    version: u64,
    epoch: u64,
}

#[derive(Default)]
struct Slot {
    result: Mutex<Option<Result<Arc<Vec<Tuple>>, ExecError>>>,
    /// Lazily encoded columnar view of `result`'s rows: a relation scanned
    /// by many columnar branches pays the term encoding once per query.
    columns: Mutex<Option<EncodedScan>>,
}

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
    /// serialise on the slot's own locks.
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

    /// The rows cached in `slot`, running `fetch` (once, whatever its
    /// outcome) if the slot is still empty.
    fn rows_in(
        &self,
        slot: &Slot,
        fetch: impl FnOnce() -> Result<Vec<Tuple>, ExecError>,
    ) -> Result<Arc<Vec<Tuple>>, ExecError> {
        let mut result = slot.result.lock().expect("scan cache slot poisoned");
        match &*result {
            Some(cached) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cached.clone()
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let fetched = fetch().map(Arc::new);
                *result = Some(fetched.clone());
                fetched
            }
        }
    }

    /// The rows for `relation`, fetching through `fetch` only if no entry
    /// for `(relation, version, epoch)` exists yet. Concurrent callers for
    /// the same key block on the filling one and share its result.
    pub fn fetch_or_insert(
        &self,
        relation: &str,
        version: u64,
        epoch: u64,
        fetch: impl FnOnce() -> Result<Vec<Tuple>, ExecError>,
    ) -> Result<Arc<Vec<Tuple>>, ExecError> {
        self.rows_in(&self.slot(relation, version, epoch), fetch)
    }

    /// Like [`ScanCache::fetch_or_insert`], but returns the rows as
    /// encoded term columns (plus the row count). The row result is cached
    /// exactly as before — a query mixing layouts shares one fetch — and
    /// the encoded columns are cached next to it, so encoding happens once
    /// per `(relation, version, epoch)` per query.
    pub fn fetch_or_insert_columns(
        &self,
        relation: &str,
        version: u64,
        epoch: u64,
        width: usize,
        fetch: impl FnOnce() -> Result<Vec<Tuple>, ExecError>,
    ) -> Result<(EncodedScan, usize), ExecError> {
        let slot = self.slot(relation, version, epoch);
        let rows = self.rows_in(&slot, fetch)?;
        let mut columns = slot.columns.lock().expect("scan cache slot poisoned");
        let cols = match &*columns {
            Some(cols) => Arc::clone(cols),
            None => {
                let encoded = Arc::new(columnar::encode_rows(&rows, width));
                *columns = Some(Arc::clone(&encoded));
                encoded
            }
        };
        Ok((cols, rows.len()))
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

    fn row(n: i64) -> Tuple {
        vec![Value::Int(n)]
    }

    #[test]
    fn second_fetch_for_same_key_is_a_hit() {
        let cache = ScanCache::new();
        let a = cache
            .fetch_or_insert("w1", 1, 0, || Ok(vec![row(1)]))
            .unwrap();
        let b = cache
            .fetch_or_insert("w1", 1, 0, || panic!("must not refetch"))
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
            .fetch_or_insert("w1", 1, 0, || Ok(vec![row(1)]))
            .unwrap();
        cache
            .fetch_or_insert("w1", 2, 0, || Ok(vec![row(2)]))
            .unwrap();
        cache
            .fetch_or_insert("w1", 1, 7, || Ok(vec![row(3)]))
            .unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn errors_are_cached_and_replayed() {
        let cache = ScanCache::new();
        let first = cache.fetch_or_insert("dead", 1, 0, || Err(ExecError::permanent("gone")));
        assert!(first.is_err());
        let second = cache.fetch_or_insert("dead", 1, 0, || panic!("must not refetch"));
        assert_eq!(second.unwrap_err(), ExecError::permanent("gone"));
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
                        .fetch_or_insert("w", 1, 0, || {
                            fetches.fetch_add(1, Ordering::Relaxed);
                            Ok(vec![row(9)])
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
