//! Process-wide data-plane counters.
//!
//! The executor increments these as it drains operator trees; the server's
//! `/metrics` endpoint exposes them next to the pool and breaker gauges so
//! an operator can see how much data the federation layer is moving.

use std::sync::atomic::{AtomicU64, Ordering};

static ROWS_MOVED: AtomicU64 = AtomicU64::new(0);
static BATCHES_EMITTED: AtomicU64 = AtomicU64::new(0);
static COL_ENCODES: AtomicU64 = AtomicU64::new(0);
static COL_DECODES: AtomicU64 = AtomicU64::new(0);
static COL_BYTES: AtomicU64 = AtomicU64::new(0);
static COL_KERNELS: AtomicU64 = AtomicU64::new(0);
static COL_INDEX_BUILDS: AtomicU64 = AtomicU64::new(0);
static JOINS_REORDERED: AtomicU64 = AtomicU64::new(0);
static FILTERS_PUSHED: AtomicU64 = AtomicU64::new(0);
static PROJECTIONS_PRUNED: AtomicU64 = AtomicU64::new(0);

/// Records `rows` tuples crossing the executor's drain loop in one batch.
pub(crate) fn record_batch(rows: u64) {
    ROWS_MOVED.fetch_add(rows, Ordering::Relaxed);
    BATCHES_EMITTED.fetch_add(1, Ordering::Relaxed);
}

/// Records `terms` values encoded into fixed-width term ids.
pub(crate) fn record_encodes(terms: u64) {
    COL_ENCODES.fetch_add(terms, Ordering::Relaxed);
    COL_BYTES.fetch_add(terms * 16, Ordering::Relaxed);
}

/// Records `terms` term ids decoded back to `Value`s.
pub(crate) fn record_decodes(terms: u64) {
    COL_DECODES.fetch_add(terms, Ordering::Relaxed);
}

/// Records one vectorized kernel invocation (filter/join/distinct/project).
pub(crate) fn record_kernel() {
    COL_KERNELS.fetch_add(1, Ordering::Relaxed);
}

/// Records one hash-join chain index built (a column's own index filled,
/// or a multi-key join's private one).
pub(crate) fn record_index_build() {
    COL_INDEX_BUILDS.fetch_add(1, Ordering::Relaxed);
}

/// Records one join whose inputs were reordered by the optimizer.
pub(crate) fn record_join_reordered() {
    JOINS_REORDERED.fetch_add(1, Ordering::Relaxed);
}

/// Records one filter pushed below a join by the optimizer.
pub(crate) fn record_filter_pushed() {
    FILTERS_PUSHED.fetch_add(1, Ordering::Relaxed);
}

/// Records one scan narrowed to its consumed columns.
pub(crate) fn record_projection_pruned() {
    PROJECTIONS_PRUNED.fetch_add(1, Ordering::Relaxed);
}

/// Counters for the plan-optimization passes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Joins whose inputs were reordered by the greedy region rebuild.
    pub joins_reordered: u64,
    /// Filters pushed below a join.
    pub filters_pushed: u64,
    /// Scans narrowed to their consumed columns.
    pub projections_pruned: u64,
}

/// The process-wide optimizer counters.
pub fn optimizer_snapshot() -> OptimizerStats {
    OptimizerStats {
        joins_reordered: JOINS_REORDERED.load(Ordering::Relaxed),
        filters_pushed: FILTERS_PUSHED.load(Ordering::Relaxed),
        projections_pruned: PROJECTIONS_PRUNED.load(Ordering::Relaxed),
    }
}

/// Counters for the columnar execution path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Values encoded into fixed-width term ids.
    pub encodes: u64,
    /// Term ids decoded back into `Value`s (render, merge, replays).
    pub decodes: u64,
    /// Bytes of fixed-width column data produced (16 per term).
    pub column_bytes: u64,
    /// Vectorized kernel invocations (filter/join/distinct/project).
    pub kernel_invocations: u64,
    /// Hash-join chain indexes built: one per column index filled (a
    /// single-key join's build column, once per column) and one per
    /// multi-key join (a private index, every execution).
    pub index_builds: u64,
}

/// A point-in-time view of the data-plane counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Tuples that crossed the executor drain loop (all queries).
    pub rows_moved: u64,
    /// Batches emitted by the executor drain loop.
    pub batches_emitted: u64,
    /// Columnar execution path counters.
    pub columnar: ColumnarStats,
    /// Term dictionary gauges (string → dense id mapping).
    pub dict: crate::columnar::DictStats,
}

/// The process-wide data-plane counters.
pub fn snapshot() -> DataPlaneStats {
    DataPlaneStats {
        rows_moved: ROWS_MOVED.load(Ordering::Relaxed),
        batches_emitted: BATCHES_EMITTED.load(Ordering::Relaxed),
        columnar: ColumnarStats {
            encodes: COL_ENCODES.load(Ordering::Relaxed),
            decodes: COL_DECODES.load(Ordering::Relaxed),
            column_bytes: COL_BYTES.load(Ordering::Relaxed),
            kernel_invocations: COL_KERNELS.load(Ordering::Relaxed),
            index_builds: COL_INDEX_BUILDS.load(Ordering::Relaxed),
        },
        dict: crate::columnar::dict_stats(),
    }
}
