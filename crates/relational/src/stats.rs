//! The cardinality-statistics catalog behind the cost-based optimizer.
//!
//! Wrapper relations are opaque REST payloads until a query scans them, so
//! MDM cannot ANALYZE ahead of time the way a warehouse does. Instead the
//! catalog learns **opportunistically**: every resilient fetch the executor
//! performs (`Executor::fetch`, see [`crate::executor`]) offers the term
//! columns it pulled here ([`StatsCatalog::observe_columns`]; tests and
//! embedders holding rows use [`StatsCatalog::observe`], which stores
//! identical statistics for the same relation) — and the
//! catalog keeps per-relation row counts plus per-column distinct-value
//! estimates and null fractions. Observation is cheap to
//! re-offer — a relation already profiled at the same provider version,
//! row count and **stats epoch** is skipped with one lock acquisition —
//! and the profiling pass itself is bounded by [`SAMPLE_CAP`] rows.
//!
//! The **stats epoch** is a monotonically increasing counter bumped by
//! [`StatsCatalog::refresh`] (the steward's "re-profile the ecosystem"
//! action). It is deliberately *not* the metadata epoch: plans cached
//! against metadata stay valid across a stats refresh, so a refresh can
//! never invalidate a rewriting or change golden outputs.
//!
//! The **version** ([`StatsCatalog::version`]) moves whenever what the
//! optimizer could read may have changed: on every refresh and on every
//! observation that stores different numbers. A core plan-cache entry
//! keeps its branch plans optimized against one version and re-optimizes
//! them on the next query once it moved (see `core::cache`).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::columnar::{term_norm, TypedColumn};
use crate::optimizer::Statistics;
use crate::schema::Schema;
use crate::value::{Tuple, Value};

/// Observation scans at most this many rows per relation; distinct counts
/// are scaled linearly when the relation is larger. Keeps the profiling
/// pass O(1)-ish even for the largest wrapper payloads.
pub const SAMPLE_CAP: usize = 65_536;

/// Per-column statistics learned from one observation.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Column name as the relation's schema spells it (qualified).
    pub column: String,
    /// Estimated distinct non-null values (exact below [`SAMPLE_CAP`]).
    pub distinct: usize,
    /// Fraction of sampled rows that were NULL in this column.
    pub null_fraction: f64,
}

/// Per-relation statistics: the unit [`StatsCatalog`] stores.
#[derive(Clone, Debug)]
pub struct RelationStats {
    /// Provider version the rows came from.
    pub version: u64,
    /// Total rows in the relation at observation time.
    pub rows: usize,
    /// Per-column estimates, in schema order.
    pub columns: Vec<ColumnStats>,
    /// Stats epoch at which this entry was (re)observed.
    pub observed_epoch: u64,
}

/// A point-in-time summary for `/metrics` and the CLI `stats` command.
#[derive(Clone, Debug, Default)]
pub struct StatsSnapshot {
    /// Current stats epoch.
    pub epoch: u64,
    /// Explicit refreshes performed.
    pub refreshes: u64,
    /// Profiling passes actually run (gated re-offers excluded).
    pub observations: u64,
    /// Relations currently profiled, with their row counts, sorted.
    pub relations: Vec<(String, usize)>,
}

/// The process- or system-wide statistics catalog. Internally synchronised;
/// shared as an `Arc` between the executor (writer) and the optimizer
/// (reader).
#[derive(Debug, Default)]
pub struct StatsCatalog {
    epoch: AtomicU64,
    version: AtomicU64,
    refreshes: AtomicU64,
    observations: AtomicU64,
    entries: Mutex<HashMap<String, RelationStats>>,
}

impl StatsCatalog {
    /// An empty catalog at stats epoch 0.
    pub fn new() -> Self {
        StatsCatalog::default()
    }

    /// The current stats epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bumps the stats epoch, making every cached entry stale: the next
    /// scan of each relation re-profiles it. Bumps the version too, so
    /// plans optimized against it are optimized again. Returns the new
    /// epoch. The *metadata* epoch is untouched — a refresh is not a
    /// release.
    pub fn refresh(&self) -> u64 {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        self.version.fetch_add(1, Ordering::SeqCst);
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Moves on every [`StatsCatalog::refresh`] and every observation that
    /// changes a relation's stored statistics; an optimization done at one
    /// version reads the same numbers as any other done at it.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// True when offering `(relation, version, rows)` would actually run a
    /// profiling pass — the executor's cheap pre-check before cloning the
    /// provider schema.
    pub fn needs_observation(&self, relation: &str, version: u64, rows: usize) -> bool {
        let epoch = self.epoch();
        let entries = self.entries.lock().expect("stats catalog poisoned");
        match entries.get(relation) {
            Some(entry) => {
                entry.version != version || entry.rows != rows || entry.observed_epoch != epoch
            }
            None => true,
        }
    }

    /// Profiles `rows` (row count, per-column distinct estimate and null
    /// fraction) and stores the result for `relation`. Sampling is capped
    /// at [`SAMPLE_CAP`] rows; distinct counts scale linearly beyond it.
    pub fn observe(&self, relation: &str, version: u64, schema: &Schema, rows: &[Tuple]) {
        let sample = rows.len().min(SAMPLE_CAP);
        let width = schema.len();
        let mut distinct: Vec<HashSet<u64>> = vec![HashSet::new(); width];
        let mut nulls = vec![0usize; width];
        for row in &rows[..sample] {
            for (i, value) in row.iter().take(width).enumerate() {
                if matches!(value, Value::Null) {
                    nulls[i] += 1;
                } else {
                    use std::hash::{Hash, Hasher};
                    let mut hasher = std::collections::hash_map::DefaultHasher::new();
                    value.hash(&mut hasher);
                    distinct[i].insert(hasher.finish());
                }
            }
        }
        let profile = distinct.iter().map(HashSet::len).zip(nulls);
        self.store(relation, version, schema, rows.len(), profile);
    }

    /// [`StatsCatalog::observe`] over term columns (`rows` long, one per
    /// schema column): the same sample, the same stored statistics — a
    /// term's hash class is its value's (`Int(1)` with `Float(1.0)`,
    /// `-0.0` with `0.0`, one dictionary id per string content) — so the
    /// optimizer cannot tell which plane a relation was profiled on.
    pub fn observe_columns(
        &self,
        relation: &str,
        version: u64,
        schema: &Schema,
        columns: &[Arc<TypedColumn>],
        rows: usize,
    ) {
        let sample = rows.min(SAMPLE_CAP);
        let profile = columns.iter().map(|column| {
            let mut distinct: HashSet<u64> = HashSet::new();
            let mut nulls = 0usize;
            for &term in column.terms().iter().take(sample) {
                if term.is_null() {
                    nulls += 1;
                } else {
                    distinct.insert(term_norm(term));
                }
            }
            (distinct.len(), nulls)
        });
        self.store(relation, version, schema, rows, profile);
    }

    /// Stores one profiling pass: `profile` yields, per schema column, the
    /// distinct non-null values and the NULLs seen in the first
    /// `rows.min(SAMPLE_CAP)` rows.
    fn store(
        &self,
        relation: &str,
        version: u64,
        schema: &Schema,
        rows: usize,
        profile: impl Iterator<Item = (usize, usize)>,
    ) {
        let epoch = self.epoch();
        let sample = rows.min(SAMPLE_CAP);
        let scale = if sample > 0 && rows > sample {
            rows as f64 / sample as f64
        } else {
            1.0
        };
        let columns = schema
            .columns()
            .iter()
            .zip(profile)
            .map(|(column, (distinct, nulls))| ColumnStats {
                column: column.to_string(),
                distinct: (((distinct as f64) * scale) as usize).min(rows),
                null_fraction: if sample == 0 {
                    0.0
                } else {
                    nulls as f64 / sample as f64
                },
            })
            .collect();
        self.observations.fetch_add(1, Ordering::Relaxed);
        let changed = {
            let mut entries = self.entries.lock().expect("stats catalog poisoned");
            let changed = entries
                .get(relation)
                .is_none_or(|old| old.rows != rows || old.columns != columns);
            let stored = RelationStats {
                version,
                rows,
                columns,
                observed_epoch: epoch,
            };
            entries.insert(relation.to_string(), stored);
            changed
        };
        // After the insert: whoever reads the new version reads the new
        // numbers too.
        if changed {
            self.version.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The stored statistics for `relation`, if profiled.
    pub fn relation(&self, relation: &str) -> Option<RelationStats> {
        self.entries
            .lock()
            .expect("stats catalog poisoned")
            .get(relation)
            .cloned()
    }

    /// Reads one stored column of `relation`. `column` names it exactly
    /// (`w.id`) or bare (`id`); a bare name matches only after a `.`, so
    /// `id` is never `w.paid`.
    fn column<T>(
        &self,
        relation: &str,
        column: &str,
        read: impl Fn(&ColumnStats) -> T,
    ) -> Option<T> {
        let entries = self.entries.lock().expect("stats catalog poisoned");
        entries
            .get(relation)?
            .columns
            .iter()
            .find(|c| {
                c.column == column
                    || c.column
                        .strip_suffix(column)
                        .is_some_and(|head| head.ends_with('.'))
            })
            .map(read)
    }

    /// Counter + inventory snapshot for `/metrics` and the CLI.
    pub fn snapshot(&self) -> StatsSnapshot {
        let entries = self.entries.lock().expect("stats catalog poisoned");
        let mut relations: Vec<(String, usize)> = entries
            .iter()
            .map(|(name, entry)| (name.clone(), entry.rows))
            .collect();
        relations.sort();
        StatsSnapshot {
            epoch: self.epoch(),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            observations: self.observations.load(Ordering::Relaxed),
            relations,
        }
    }
}

impl Statistics for StatsCatalog {
    fn estimated_rows(&self, relation: &str) -> Option<usize> {
        self.entries
            .lock()
            .expect("stats catalog poisoned")
            .get(relation)
            .map(|entry| entry.rows)
    }

    fn distinct_values(&self, relation: &str, column: &str) -> Option<usize> {
        self.column(relation, column, |c| c.distinct.max(1))
    }

    fn null_fraction(&self, relation: &str, column: &str) -> Option<f64> {
        self.column(relation, column, |c| c.null_fraction)
    }
}

/// The process-wide catalog fed by executors that were not handed an
/// explicit one ([`crate::ExecOptions::stats`] defaults to this).
pub fn global() -> Arc<StatsCatalog> {
    static GLOBAL: OnceLock<Arc<StatsCatalog>> = OnceLock::new();
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(StatsCatalog::new())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::str(format!("name-{}", i % 7)),
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::Int((i % 3) as i64)
                    },
                ]
            })
            .collect()
    }

    fn schema() -> Schema {
        Schema::qualified("w", ["id", "name", "grade"])
    }

    #[test]
    fn observation_profiles_rows_distincts_and_nulls() {
        let catalog = StatsCatalog::new();
        catalog.observe("w", 1, &schema(), &rows(100));
        assert_eq!(catalog.estimated_rows("w"), Some(100));
        assert_eq!(catalog.distinct_values("w", "w.id"), Some(100));
        assert_eq!(catalog.distinct_values("w", "w.name"), Some(7));
        // A bare lookup matches the qualified column after its `.`.
        assert_eq!(catalog.distinct_values("w", "id"), Some(100));
        let nulls = catalog.null_fraction("w", "w.grade").unwrap();
        assert!((nulls - 0.25).abs() < 1e-9, "{nulls}");
    }

    #[test]
    fn observation_gate_skips_unchanged_relations() {
        let catalog = StatsCatalog::new();
        assert!(catalog.needs_observation("w", 1, 100));
        catalog.observe("w", 1, &schema(), &rows(100));
        assert!(!catalog.needs_observation("w", 1, 100));
        // A version bump, a row-count change or a refresh re-arms it.
        assert!(catalog.needs_observation("w", 2, 100));
        assert!(catalog.needs_observation("w", 1, 101));
        catalog.refresh();
        assert!(catalog.needs_observation("w", 1, 100));
    }

    /// A bare name is a whole column name after the relation's `.`, never
    /// the tail of a longer one: `id` is `w.id`, not `w.paid`.
    #[test]
    fn a_bare_column_name_matches_only_a_whole_column() {
        let catalog = StatsCatalog::new();
        let rows: Vec<Tuple> = (0..10)
            .map(|i| vec![Value::Bool(i % 2 == 0), Value::Int(i)])
            .collect();
        catalog.observe("w", 1, &Schema::qualified("w", ["paid", "id"]), &rows);
        assert_eq!(catalog.distinct_values("w", "id"), Some(10));
        assert_eq!(catalog.distinct_values("w", "w.id"), Some(10));
        assert_eq!(catalog.distinct_values("w", "paid"), Some(2));
        assert_eq!(catalog.distinct_values("w", "d"), None);
        assert_eq!(catalog.null_fraction("w", "aid"), None);
        assert_eq!(catalog.null_fraction("w", "id"), Some(0.0));
    }

    /// The version moves when the stored numbers may change: a refresh, a
    /// new relation, different numbers. Re-observing the same numbers
    /// (after a refresh, or by a second query racing the first) keeps it.
    #[test]
    fn the_version_moves_only_when_what_the_optimizer_reads_may_change() {
        let catalog = StatsCatalog::new();
        assert_eq!(catalog.version(), 0);
        catalog.observe("w", 1, &schema(), &rows(100));
        assert_eq!(catalog.version(), 1);
        catalog.observe("w", 1, &schema(), &rows(100));
        assert_eq!(catalog.version(), 1, "the same numbers again");
        catalog.refresh();
        assert_eq!(catalog.version(), 2);
        catalog.observe("w", 1, &schema(), &rows(100));
        assert_eq!(
            catalog.version(),
            2,
            "re-profiled after a refresh, unchanged"
        );
        catalog.observe("w", 2, &schema(), &rows(50));
        assert_eq!(catalog.version(), 3);
        catalog.observe("v", 1, &schema(), &rows(50));
        assert_eq!(catalog.version(), 4);
    }

    #[test]
    fn refresh_bumps_the_stats_epoch_monotonically() {
        let catalog = StatsCatalog::new();
        assert_eq!(catalog.epoch(), 0);
        assert_eq!(catalog.refresh(), 1);
        assert_eq!(catalog.refresh(), 2);
        assert_eq!(catalog.snapshot().refreshes, 2);
    }

    #[test]
    fn snapshot_lists_relations_sorted() {
        let catalog = StatsCatalog::new();
        catalog.observe("w2", 1, &schema(), &rows(5));
        catalog.observe("w1", 1, &schema(), &rows(9));
        let snapshot = catalog.snapshot();
        assert_eq!(
            snapshot.relations,
            vec![("w1".to_string(), 9), ("w2".to_string(), 5)]
        );
        assert_eq!(snapshot.observations, 2);
    }

    #[test]
    fn unknown_relations_answer_none() {
        let catalog = StatsCatalog::new();
        assert_eq!(catalog.estimated_rows("ghost"), None);
        assert_eq!(catalog.distinct_values("ghost", "id"), None);
        assert_eq!(catalog.null_fraction("ghost", "id"), None);
    }

    /// Profiles `rows` on both planes, checks that both stored the same
    /// statistics and returns them.
    fn assert_same_profile(schema: &Schema, rows: &[Tuple]) -> RelationStats {
        let (by_rows, by_columns) = (StatsCatalog::new(), StatsCatalog::new());
        by_rows.observe("w", 3, schema, rows);
        let columns = crate::columnar::encode_rows(rows, schema.len());
        by_columns.observe_columns("w", 3, schema, &columns, rows.len());
        let (by_rows, by_columns) = (
            by_rows.relation("w").unwrap(),
            by_columns.relation("w").unwrap(),
        );
        assert_eq!(by_rows.version, by_columns.version);
        assert_eq!(by_rows.rows, by_columns.rows);
        assert_eq!(by_rows.columns, by_columns.columns);
        by_columns
    }

    #[test]
    fn column_profile_scales_past_the_sample_cap_like_the_row_profile() {
        // Distinct values keep appearing after the cap, NULLs too: both
        // profilers must sample the same prefix and scale the same way.
        let rows: Vec<Tuple> = (0..SAMPLE_CAP + 4_000)
            .map(|i| {
                vec![
                    Value::Int((i / 2) as i64),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("k{}", i % 1_000))
                    },
                ]
            })
            .collect();
        let schema = Schema::qualified("w", ["id", "key"]);
        let by_columns = assert_same_profile(&schema, &rows);
        assert_eq!(by_columns.rows, SAMPLE_CAP + 4_000);
        assert!(by_columns.columns[0].distinct > SAMPLE_CAP / 2);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Cells that collide only under the coercing equality (`Int(1)` /
        /// `Float(1.0)`, `-0.0` / `0.0`), NaN, NULLs, inline strings and
        /// strings too long for the inline buffer.
        fn cell() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                (-3i64..4).prop_map(Value::Int),
                (-3i64..4).prop_map(|i| Value::Float(i as f64)),
                Just(Value::Float(-0.0)),
                Just(Value::Float(f64::NAN)),
                Just(Value::Float(0.5)),
                "[a-c]{0,2}".prop_map(Value::str),
                (0u8..3).prop_map(|i| Value::str(format!("a-long-pooled-string-cell-{i:030}"))),
            ]
        }

        proptest! {
            #[test]
            fn observe_columns_stores_what_observe_stores(
                width in 1usize..4,
                rows in proptest::collection::vec(proptest::collection::vec(cell(), 3), 0..60),
            ) {
                let rows: Vec<Tuple> =
                    rows.into_iter().map(|row| row[..width].to_vec()).collect();
                let schema = Schema::qualified("w", (0..width).map(|c| format!("c{c}")));
                assert_same_profile(&schema, &rows);
            }
        }
    }
}
