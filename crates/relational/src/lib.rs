//! # mdm-relational
//!
//! The federated-execution substrate of MDM. The paper's implementation
//! loads "the fragment of data provided by wrappers … into temporal SQLite
//! tables in order to execute the federated query" (§2.5). This crate
//! replaces that stage with a native engine:
//!
//! * [`Value`] / [`Tuple`] / [`Schema`] / [`Table`] — the data model, with a
//!   figure-style pretty printer (Table 1 of the paper is produced by it);
//! * [`algebra`] — the logical relational algebra of a conjunctive query:
//!   σ equating two columns, π selecting and renaming columns, inner ⋈ on
//!   column pairs, and δ. The query-rewriting algorithm of `mdm-core`
//!   outputs one of these plans per conjunctive query, and their `Display`
//!   forms make up the "relational algebra expression" shown in Figure 8.
//!   There is no scalar expression language: no literal, operator or
//!   evaluation error exists to be planned;
//! * [`columnar`] — the data plane: fixed-width 16-byte term encoding and
//!   column-equality filter, join, distinct and project kernels over
//!   shared column batches, decoding back to [`Value`]s only at render
//!   time; and
//!   [`columnar::merge_branches`], the merge of a UCQ's branch results
//!   while they are still term batches (∪, then one sort over integer
//!   order codes — strings at their rank in the term dictionary's content
//!   order — in which δ drops adjacent duplicates), returning the answer
//!   as [`columnar::MergedRows`] — sorted term rows plus its distinct
//!   strings, never a [`Table`];
//! * [`executor`] — a single-plan interpreter: one logical plan plus a
//!   [`Catalog`] of relation providers in, one materialised [`Table`] out
//!   ([`Executor::run`]) — or, for a caller that still has merging to do,
//!   the drained batches undecoded ([`Executor::run_undecoded`]) — with
//!   per-query scan reuse ([`scan_cache`]). It covers the shapes MDM's
//!   rewriting emits for one conjunctive query (σ, π, inner ⋈) plus δ,
//!   and a plan without columns (a relation without columns, an
//!   empty projection) is an error. There is one data plane; the oracle
//!   its kernels are held to is a row-at-a-time reference interpreter in
//!   the test suite (`tests/support/reference.rs`), which shares no code
//!   with them. Fanning the branches of a UCQ
//!   out across cores lives one level up, in
//!   `mdm_core::query::execute_degraded`, which hands the branches'
//!   batches to [`columnar::merge_branches`];
//! * [`pool`] — the bounded, work-stealing scoped-thread worker pool
//!   (hash-join probes here, UCQ branches in `mdm-core`);
//! * [`scan_cache`] — the per-query `(relation, version, epoch)`-keyed
//!   scan cache (each wrapper fetched once per query);
//! * [`optimizer`] — plan optimization, one branch plan at a time:
//!   predicate pushdown plus the cost-based passes (projection pruning,
//!   greedy join-region reordering) driven by the [`stats`] catalog, with
//!   `off` kept as the oracle; δ passes through it untouched;
//! * [`stats`] — the cardinality-statistics catalog: per-relation row
//!   counts and per-column distinct/null estimates, learned
//!   opportunistically from executor scans and versioned by a stats
//!   epoch.

pub mod algebra;
pub mod columnar;
pub mod executor;
pub mod intern;
pub mod metrics;
pub mod optimizer;
pub mod pool;
pub mod resilience;
pub mod scan_cache;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use algebra::Plan;
pub use columnar::{DictStats, MergedRows};
pub use executor::{
    Catalog, ErrorKind, ExecError, ExecOptions, Executor, MemoryCatalog, RelationProvider,
    Undecoded,
};
pub use intern::Sym;
pub use metrics::{DataPlaneStats, OptimizerStats};
pub use optimizer::{explain_tree, OptimizeMode, Optimizer, Statistics};
pub use pool::{Pool, PoolStats};
pub use resilience::{
    BreakerConfig, BreakerRegistry, BreakerSnapshot, Deadline, RetryPolicy, ScanGuard,
};
pub use scan_cache::{ScanCache, ScanCacheStats};
pub use schema::Schema;
pub use stats::{StatsCatalog, StatsSnapshot};
pub use table::Table;
pub use value::{Tuple, Value};
