//! The executor: logical plan + catalog → materialised [`Table`].
//!
//! There is one data plane. A plan becomes a tree of columnar operators
//! over term columns, every scan pulls its provider's
//! [`columns()`](RelationProvider::columns) through the per-query
//! [`ScanCache`], and the drained batches decode into a [`Table`] only in
//! [`Executor::run`]; [`Executor::run_undecoded`] hands them back still
//! encoded. The oracle the kernels are held to is not in this crate: it
//! is a row-at-a-time reference interpreter in the test suite, sharing no
//! code with the operators.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::algebra::Plan;
use crate::columnar::{
    encode_rows, ColDistinct, ColFilter, ColHashJoin, ColOperator, ColProject, ColScan, ColumnBatch,
};
use crate::metrics;
use crate::pool::{self, Pool};
use crate::resilience::{Deadline, RetryPolicy, ScanGuard};
use crate::scan_cache::{EncodedScan, ScanCache};
use crate::schema::{ColumnRef, Schema};
use crate::stats::StatsCatalog;
use crate::table::Table;

/// Classifies an [`ExecError`] by what the caller should do about it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Retryable: a hiccup that a later attempt may clear.
    Transient,
    /// Non-retryable: bad plan, unknown relation, dead source.
    Permanent,
    /// The source answered with bytes that do not parse.
    Malformed,
    /// A deadline or time budget was exceeded.
    Timeout,
}

impl ErrorKind {
    /// The lowercase label used in messages and metrics.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Transient => "transient",
            ErrorKind::Permanent => "permanent",
            ErrorKind::Malformed => "malformed",
            ErrorKind::Timeout => "timeout",
        }
    }
}

/// An error raised during plan translation or execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecError {
    /// What went wrong, coarsely: drives retry and degraded-mode decisions.
    pub kind: ErrorKind,
    /// The human-readable description.
    pub message: String,
}

impl ExecError {
    /// An error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ExecError {
            kind,
            message: message.into(),
        }
    }

    /// A retryable error.
    pub fn transient(message: impl Into<String>) -> Self {
        ExecError::new(ErrorKind::Transient, message)
    }

    /// A non-retryable error (the default for plan-shape problems).
    pub fn permanent(message: impl Into<String>) -> Self {
        ExecError::new(ErrorKind::Permanent, message)
    }

    /// An unparseable-payload error.
    pub fn malformed(message: impl Into<String>) -> Self {
        ExecError::new(ErrorKind::Malformed, message)
    }

    /// A deadline-exceeded error.
    pub fn timeout(message: impl Into<String>) -> Self {
        ExecError::new(ErrorKind::Timeout, message)
    }

    /// True when a retry can reasonably be expected to succeed.
    pub fn is_transient(&self) -> bool {
        self.kind == ErrorKind::Transient
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "execution error ({}): {}",
            self.kind.label(),
            self.message
        )
    }
}

impl std::error::Error for ExecError {}

/// A source of one named relation.
///
/// In MDM every wrapper is a `RelationProvider`: its schema is the wrapper
/// signature `w(a1, …, an)` and a fetch runs the wrapper (API call, file
/// read, …) and flattens the payload to 1NF. The executor fetches through
/// [`columns`](Self::columns), the only way to read a provider. A
/// provider whose relation is immutable under one identity (a wrapper
/// over one release) hands out a column set it keeps resident, so a warm
/// scan is an `Arc` clone; the provider owns those columns, and dropping
/// the provider is their only invalidation. An in-memory one (a
/// [`Table`]) encodes its rows per fetch ([`encode_rows`]).
/// `Sync` because union branches executing on pool workers fetch through
/// shared references; providers must tolerate concurrent fetches.
pub trait RelationProvider: Sync {
    /// The relation's schema (qualified by the relation name).
    fn provider_schema(&self) -> Schema;
    /// The current rows as shared term columns (one per schema column)
    /// plus the row count: one fetch, with the failures and side effects
    /// of one. May fail — a crashed source is an error the engine surfaces
    /// rather than hides (cf. the paper's motivation: queries over evolved
    /// schemas "crash or return partial results").
    fn columns(&self) -> Result<(EncodedScan, usize), ExecError>;
    /// A version discriminator for the per-query scan cache key; providers
    /// whose rows never change under one identity may leave the default.
    fn version(&self) -> u64 {
        0
    }
}

/// Resolves relation names to providers. `Sync` for the same reason as
/// [`RelationProvider`]: one catalog serves every parallel branch.
pub trait Catalog: Sync {
    /// The provider registered under `name`.
    fn provider(&self, name: &str) -> Option<&dyn RelationProvider>;

    /// The schema of relation `name`, as a `Result` for plan derivation.
    fn relation_schema(&self, name: &str) -> Result<Schema, String> {
        self.provider(name)
            .map(|p| p.provider_schema())
            .ok_or_else(|| format!("unknown relation '{name}'"))
    }
}

/// A catalog of materialised tables (used by tests, benches and the SQLite-
/// replacement path where wrapper outputs are staged before federation).
#[derive(Default)]
pub struct MemoryCatalog {
    tables: HashMap<String, Table>,
}

impl MemoryCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        MemoryCatalog::default()
    }

    /// Registers `table` under `name`, replacing any previous registration.
    pub fn register(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort();
        names
    }

    /// The table registered under `name`, rows as registered.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }
}

impl RelationProvider for Table {
    fn provider_schema(&self) -> Schema {
        self.schema().clone()
    }

    fn columns(&self) -> Result<(EncodedScan, usize), ExecError> {
        let columns = encode_rows(self.rows(), self.schema().len());
        Ok((Arc::new(columns), self.len()))
    }
}

impl Catalog for MemoryCatalog {
    fn provider(&self, name: &str) -> Option<&dyn RelationProvider> {
        self.tables.get(name).map(|t| t as &dyn RelationProvider)
    }
}

/// What [`Executor::run_undecoded`] drained: the result still encoded as
/// term batches, each with one column per schema column.
#[derive(Debug)]
pub struct Undecoded {
    /// The result's schema.
    pub schema: Schema,
    /// The drained batches, in output order.
    pub batches: Vec<ColumnBatch>,
}

impl Undecoded {
    /// The result as a [`Table`]: the batches decode here.
    pub fn decode(self) -> Result<Table, String> {
        Table::from_column_batches(self.schema, &self.batches)
    }
}

/// The default drain width: rows per [`ColOperator::next_cols`] pull.
pub const DEFAULT_BATCH: usize = 1024;

/// Knobs for one plan execution: how hard to retry transient scan
/// failures, how long the whole query may take, and how wide it may fan
/// out.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Retry policy applied to every relation fetch.
    pub retry: RetryPolicy,
    /// Time budget for the whole plan (fetches, retries, and drains).
    pub deadline: Deadline,
    /// Worker pool for partitioned hash-join probes (and, one level up,
    /// for `mdm-core`'s fan-out over UCQ branches). `None` (or a size-1
    /// pool) keeps everything on the calling thread. Defaults to the
    /// process-wide [`pool::global`] pool.
    pub pool: Option<Arc<Pool>>,
    /// Rows per `next_cols` pull while draining a plan.
    pub batch_size: usize,
    /// Metadata epoch stamped into scan-cache keys so rows can never leak
    /// across a steward mutation.
    pub epoch: u64,
    /// Statistics catalog to feed with scan observations (row counts,
    /// per-column distincts) as relations are fetched. Defaults to the
    /// process-wide [`stats::global`](crate::stats::global) catalog;
    /// `None` disables observation.
    pub stats: Option<Arc<StatsCatalog>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            retry: RetryPolicy::default(),
            deadline: Deadline::none(),
            pool: Some(pool::global()),
            batch_size: DEFAULT_BATCH,
            epoch: 0,
            stats: Some(crate::stats::global()),
        }
    }
}

impl ExecOptions {
    /// Options forcing single-threaded execution (the A/B baseline).
    pub fn sequential() -> Self {
        ExecOptions {
            pool: None,
            ..ExecOptions::default()
        }
    }
}

/// The adaptive drain loop never shrinks batches below this width: at tiny
/// widths the per-block dispatch overhead dominates again.
const MIN_ADAPTIVE_BATCH: usize = 64;

/// Executes logical plans against a catalog.
pub struct Executor<'a> {
    catalog: &'a dyn Catalog,
    options: ExecOptions,
    guard: Option<&'a dyn ScanGuard>,
    retries: AtomicU64,
    /// Rows fetched from providers by this executor, feeding the adaptive
    /// batch width (the result can't be wider than its inputs for the
    /// UCQ shapes MDM emits).
    fetched_rows: AtomicU64,
    shared_cache: Option<&'a ScanCache>,
}

impl<'a> Executor<'a> {
    /// Creates an executor over `catalog` with default options (a small
    /// retry budget, no deadline, no circuit breaking).
    pub fn new(catalog: &'a dyn Catalog) -> Self {
        Executor::with_options(catalog, ExecOptions::default())
    }

    /// An executor with explicit retry/deadline options.
    pub fn with_options(catalog: &'a dyn Catalog, options: ExecOptions) -> Self {
        Executor {
            catalog,
            options,
            guard: None,
            retries: AtomicU64::new(0),
            fetched_rows: AtomicU64::new(0),
            shared_cache: None,
        }
    }

    /// Routes every relation fetch through `guard` (circuit breaking).
    pub fn with_guard(mut self, guard: &'a dyn ScanGuard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Shares `cache` across executors of one query, so sibling branch
    /// executors (degraded mode runs one per branch) fetch each wrapper
    /// exactly once between them. Without this, `run` uses a private
    /// per-call cache with the same within-query guarantee.
    pub fn with_scan_cache(mut self, cache: &'a ScanCache) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Transient scan failures retried (and absorbed) so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Runs `plan` to completion on the calling thread, materialising the
    /// result. Scans go through the shared [`ScanCache`] when one is
    /// attached, else through a cache private to this call; the only
    /// parallelism below this point is the hash-join probe.
    pub fn run(&self, plan: &Plan) -> Result<Table, ExecError> {
        self.run_undecoded(plan)?
            .decode()
            .map_err(ExecError::permanent)
    }

    /// [`Executor::run`] without the decode: the result comes back as its
    /// schema plus the term batches it drained, so a caller that still has
    /// merging to do (`mdm-core` unions UCQ branches) only pays decode for
    /// the rows that survive it.
    pub fn run_undecoded(&self, plan: &Plan) -> Result<Undecoded, ExecError> {
        let local = ScanCache::new();
        let cache = self.shared_cache.unwrap_or(&local);
        if self.options.deadline.expired() {
            return Err(self.options.deadline.exceeded("starting plan execution"));
        }
        let mut op = self.build(plan, cache)?;
        let batch_size = self.drain_width();
        let mut batches = Vec::new();
        while let Some(batch) = op.next_cols(batch_size) {
            let batch = batch?;
            metrics::record_batch(batch.len() as u64);
            batches.push(batch);
            if self.options.deadline.expired() {
                return Err(self.options.deadline.exceeded("draining result rows"));
            }
        }
        Ok(Undecoded {
            schema: op.schema().clone(),
            batches,
        })
    }

    /// Rows per drain step: a deadline check per step so a huge (or
    /// pathological) result cannot blow past the budget unnoticed. The
    /// width adapts downward to the input size (known exactly once the plan
    /// is built, which fetched every scanned relation): a 100-row query
    /// should not pay 1024-row drain bookkeeping.
    fn drain_width(&self) -> usize {
        let width = self.options.batch_size.max(1);
        match self.fetched_rows.load(Ordering::Relaxed) as usize {
            0 => width,
            n => width.min(n.max(MIN_ADAPTIVE_BATCH)),
        }
    }

    /// Fetches one relation's term columns through the guard, the retry
    /// policy and the deadline: the resilient edge between the engine and
    /// a source.
    fn fetch(
        &self,
        relation: &str,
        provider: &dyn RelationProvider,
    ) -> Result<(EncodedScan, usize), ExecError> {
        if let Some(guard) = self.guard {
            // A breaker rejection is not a new failure; don't record it.
            guard.admit(relation)?;
        }
        let mut attempt: u32 = 1;
        loop {
            if self.options.deadline.expired() {
                let err = self
                    .options
                    .deadline
                    .exceeded(&format!("fetching relation '{relation}'"));
                if let Some(guard) = self.guard {
                    guard.record_failure(relation, &err);
                }
                return Err(err);
            }
            match provider.columns() {
                Ok((columns, rows)) => {
                    if let Some(guard) = self.guard {
                        guard.record_success(relation);
                    }
                    self.fetched_rows.fetch_add(rows as u64, Ordering::Relaxed);
                    // Piggyback statistics observation on the fetch we
                    // already paid for: profile the relation unless the
                    // catalog has this (relation, version, row count) at
                    // the current stats epoch already.
                    if let Some(stats) = &self.options.stats {
                        let version = provider.version();
                        if stats.needs_observation(relation, version, rows) {
                            let schema = provider.provider_schema();
                            stats.observe_columns(relation, version, &schema, &columns, rows);
                        }
                    }
                    return Ok((columns, rows));
                }
                Err(err) if err.is_transient() && attempt < self.options.retry.max_attempts => {
                    let backoff = self.options.retry.backoff(attempt);
                    if let Some(remaining) = self.options.deadline.remaining() {
                        if backoff >= remaining {
                            let timeout = ExecError::timeout(format!(
                                "deadline exhausted retrying '{relation}' after {attempt} \
                                 attempt(s); last error: {}",
                                err.message
                            ));
                            if let Some(guard) = self.guard {
                                guard.record_failure(relation, &timeout);
                            }
                            return Err(timeout);
                        }
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    attempt += 1;
                }
                Err(err) => {
                    if let Some(guard) = self.guard {
                        guard.record_failure(relation, &err);
                    }
                    return Err(err);
                }
            }
        }
    }

    /// The provider behind a scan, and its schema. A relation without
    /// columns is rejected: no MDM plan scans one (a wrapper signature has
    /// at least one attribute), and a column batch has no shape for it.
    fn scan_source(&self, relation: &str) -> Result<(&dyn RelationProvider, Schema), ExecError> {
        let provider = self.catalog.provider(relation).ok_or_else(|| {
            ExecError::permanent(format!("unknown relation '{relation}' in catalog"))
        })?;
        let schema = provider.provider_schema();
        if schema.is_empty() {
            return Err(ExecError::permanent(format!(
                "relation '{relation}' has no columns; a plan must produce at least one"
            )));
        }
        Ok((provider, schema))
    }

    /// A scan's input through `cache`: the provider's term columns and
    /// row count. The first scan of `relation` in the query fetches it,
    /// every later one replays that outcome, success or error.
    fn scan(
        &self,
        relation: &str,
        cache: &ScanCache,
    ) -> Result<(Schema, (EncodedScan, usize)), ExecError> {
        let (provider, schema) = self.scan_source(relation)?;
        let columns = cache.fetch_or_insert_columns(
            relation,
            provider.version(),
            self.options.epoch,
            || self.fetch(relation, provider),
        )?;
        Ok((schema, columns))
    }

    /// Fetches `relation` into the attached scan cache without running a
    /// plan: the scan a plan would make, through the same guard, retry,
    /// deadline and stats loop, leaving the outcome every later scan of it
    /// in the query replays. An expired
    /// deadline fails it first, as it fails a plan's start. Without an
    /// attached cache the fetch is made and dropped.
    pub fn prefetch(&self, relation: &str) -> Result<(), ExecError> {
        if self.options.deadline.expired() {
            return Err(self
                .options
                .deadline
                .exceeded(&format!("prefetching relation '{relation}'")));
        }
        let local = ScanCache::new();
        let cache = self.shared_cache.unwrap_or(&local);
        self.scan(relation, cache).map(drop)
    }

    /// Translates `plan` into its operator tree over term columns. Scans go
    /// through the per-query cache — a relation referenced by `k` branches
    /// is fetched (and pays retries/breaker events) once, not `k` times.
    fn build(&self, plan: &Plan, cache: &ScanCache) -> Result<Box<dyn ColOperator>, ExecError> {
        let op: Box<dyn ColOperator> = match plan {
            Plan::Scan { relation } => {
                let (schema, (columns, len)) = self.scan(relation, cache)?;
                Box::new(ColScan::new(schema, columns, len))
            }
            Plan::Filter { input, left, right } => {
                let input = self.build(input, cache)?;
                let left = column_index(input.schema(), left)?;
                let right = column_index(input.schema(), right)?;
                Box::new(ColFilter::new(input, left, right))
            }
            Plan::Project { input, columns } => {
                if columns.is_empty() {
                    return Err(ExecError::permanent(
                        "empty projection; a plan must produce at least one column",
                    ));
                }
                let input = self.build(input, cache)?;
                let indices = columns
                    .iter()
                    .map(|(source, _)| column_index(input.schema(), source))
                    .collect::<Result<_, _>>()?;
                let schema = Schema::new(columns.iter().map(|(_, name)| name.clone()).collect());
                Box::new(ColProject::new(input, indices, schema))
            }
            Plan::Join { left, right, on } => {
                let left = self.build(left, cache)?;
                let right = self.build(right, cache)?;
                let (left_keys, right_keys) = join_keys(on, left.schema(), right.schema())?;
                Box::new(
                    ColHashJoin::new(left, right, left_keys, right_keys)?
                        .with_pool(self.options.pool.clone()),
                )
            }
            Plan::Distinct { input } => Box::new(ColDistinct::new(self.build(input, cache)?)),
        };
        Ok(op)
    }
}

/// Resolves a σ or π column against its input's schema.
fn column_index(schema: &Schema, column: &ColumnRef) -> Result<usize, ExecError> {
    schema.index_of(column).map_err(ExecError::permanent)
}

/// Resolves a join's `on` pairs to column indices of its two inputs.
fn join_keys(
    on: &[(ColumnRef, ColumnRef)],
    left: &Schema,
    right: &Schema,
) -> Result<(Vec<usize>, Vec<usize>), ExecError> {
    let index = |schema: &Schema, column| {
        schema
            .index_of(column)
            .map_err(|e| ExecError::permanent(format!("join key: {e}")))
    };
    on.iter()
        .map(|(l, r)| Ok((index(left, l)?, index(right, r)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn catalog() -> MemoryCatalog {
        let mut catalog = MemoryCatalog::new();
        catalog.register(
            "w1",
            Table::new(
                Schema::qualified("w1", ["id", "pName", "teamId"]),
                vec![
                    vec![Value::Int(1), Value::str("Lionel Messi"), Value::Int(25)],
                    vec![
                        Value::Int(2),
                        Value::str("Robert Lewandowski"),
                        Value::Int(27),
                    ],
                    vec![
                        Value::Int(3),
                        Value::str("Zlatan Ibrahimovic"),
                        Value::Int(31),
                    ],
                ],
            )
            .unwrap(),
        );
        catalog.register(
            "w2",
            Table::new(
                Schema::qualified("w2", ["id", "name", "shortName"]),
                vec![
                    vec![
                        Value::Int(25),
                        Value::str("FC Barcelona"),
                        Value::str("FCB"),
                    ],
                    vec![
                        Value::Int(27),
                        Value::str("Bayern Munich"),
                        Value::str("FCB2"),
                    ],
                    vec![
                        Value::Int(31),
                        Value::str("Manchester United"),
                        Value::str("MU"),
                    ],
                ],
            )
            .unwrap(),
        );
        catalog
    }

    /// Runs the paper's Figure 8 query and checks Table 1's rows come out.
    #[test]
    fn figure8_query_produces_table1() {
        let catalog = catalog();
        let plan = Plan::scan("w1")
            .join(
                Plan::scan("w2"),
                vec![(
                    ColumnRef::qualified("w1", "teamId"),
                    ColumnRef::qualified("w2", "id"),
                )],
            )
            .project_named(&[("w2.name", "ex:teamName"), ("w1.pName", "ex:playerName")]);
        let table = Executor::new(&catalog).run(&plan).unwrap();
        assert_eq!(table.len(), 3);
        let rendered = table.render();
        assert!(rendered.contains("FC Barcelona      | Lionel Messi"));
        assert!(rendered.contains("Bayern Munich     | Robert Lewandowski"));
        assert!(rendered.contains("Manchester United | Zlatan Ibrahimovic"));
    }

    #[test]
    fn unknown_relation_is_error() {
        let catalog = catalog();
        let err = Executor::new(&catalog)
            .run(&Plan::scan("nope"))
            .unwrap_err();
        assert!(err.message.contains("unknown relation 'nope'"));
        assert_eq!(err.kind, ErrorKind::Permanent);
    }

    #[test]
    fn union_distinct_pipeline() {
        let catalog = catalog();
        // Every team once per player: each row three times.
        let teams = Plan::scan("w1")
            .join(Plan::scan("w2"), vec![])
            .project_named(&[("w2.name", "team")]);
        assert_eq!(Executor::new(&catalog).run(&teams).unwrap().len(), 9);
        let table = Executor::new(&catalog).run(&teams.distinct()).unwrap();
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn filter_then_sorted_table() {
        let catalog = catalog();
        // Every player against every team, then σ keeps each player's own.
        let plan = Plan::scan("w1").join(Plan::scan("w2"), vec![]).filter(
            ColumnRef::qualified("w1", "teamId"),
            ColumnRef::qualified("w2", "id"),
        );
        let table = Executor::new(&catalog).run(&plan).unwrap().sorted();
        assert_eq!(table.len(), 3);
        assert_eq!(table.rows()[1][1], Value::str("Robert Lewandowski"));
        assert_eq!(table.rows()[1][4], Value::str("Bayern Munich"));
    }

    #[test]
    fn bad_join_key_is_error() {
        let catalog = catalog();
        let plan = Plan::scan("w1").join(
            Plan::scan("w2"),
            vec![(ColumnRef::bare("missing"), ColumnRef::bare("id"))],
        );
        let err = Executor::new(&catalog).run(&plan).unwrap_err();
        assert!(err.message.contains("join key"));
    }

    /// Players `p` (one without a team) and teams `t`, one operator's
    /// worth of input each.
    fn operators() -> MemoryCatalog {
        let mut catalog = MemoryCatalog::new();
        let mut register = |name: &str, columns: &[&str], rows| {
            let schema = Schema::qualified(name, columns.to_vec());
            catalog.register(name, Table::new(schema, rows).unwrap());
        };
        register(
            "p",
            &["id", "pName", "teamId"],
            vec![
                vec![Value::Int(1), Value::str("Messi"), Value::Int(25)],
                vec![Value::Int(2), Value::str("Lewandowski"), Value::Int(27)],
                vec![Value::Int(3), Value::str("Unattached"), Value::Null],
            ],
        );
        register(
            "t",
            &["id", "name"],
            vec![
                vec![Value::Int(25), Value::str("FC Barcelona")],
                vec![Value::Int(27), Value::str("Bayern Munich")],
                vec![Value::Int(31), Value::str("Juventus")],
            ],
        );
        register(
            "l",
            &["k"],
            vec![vec![Value::Float(25.0)], vec![Value::Int(31)]],
        );
        register("n", &["only"], vec![]);
        catalog
    }

    fn players_join_teams() -> Plan {
        Plan::scan("p").join(
            Plan::scan("t"),
            vec![(
                ColumnRef::qualified("p", "teamId"),
                ColumnRef::qualified("t", "id"),
            )],
        )
    }

    #[test]
    fn scan_yields_all_rows() {
        let table = Executor::new(&operators()).run(&Plan::scan("p")).unwrap();
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn filter_drops_nonmatching() {
        // The NULL teamId equals no team id, and Juventus has no player.
        let plan = Plan::scan("p").join(Plan::scan("t"), vec![]).filter(
            ColumnRef::qualified("p", "teamId"),
            ColumnRef::qualified("t", "id"),
        );
        let table = Executor::new(&operators()).run(&plan).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows()[0][1], Value::str("Messi"));
        assert_eq!(table.rows()[1][4], Value::str("Bayern Munich"));
    }

    /// An unresolvable σ or π column fails when the plan is built, with
    /// the schema's message, even over a relation without rows.
    #[test]
    fn missing_column_is_a_build_error() {
        let only = ColumnRef::qualified("n", "only");
        let nope = ColumnRef::qualified("n", "nope");
        let filter = Plan::scan("n").filter(only, nope.clone());
        let project = Plan::scan("n").project(vec![(nope, ColumnRef::bare("out"))]);
        for plan in [filter, project] {
            let err = Executor::new(&operators()).run(&plan).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Permanent);
            assert_eq!(
                err.message, "column 'n.nope' not found in schema [n.only]",
                "{plan}"
            );
        }
    }

    #[test]
    fn project_computes_and_renames() {
        let plan = Plan::scan("p").project_named(&[("p.pName", "name")]);
        let table = Executor::new(&operators()).run(&plan).unwrap();
        assert_eq!(table.schema().join_names(", "), "name");
        assert_eq!(table.rows()[0], vec![Value::str("Messi")]);
    }

    #[test]
    fn hash_join_matches_and_skips_nulls() {
        let table = Executor::new(&operators())
            .run(&players_join_teams())
            .unwrap()
            .sorted();
        // Unattached (NULL teamId) drops out.
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows()[0][1], Value::str("Messi"));
        assert_eq!(table.rows()[0][4], Value::str("FC Barcelona"));
    }

    #[test]
    fn hash_join_crosses_numeric_types() {
        let plan = Plan::scan("l").join(
            Plan::scan("t"),
            vec![(
                ColumnRef::qualified("l", "k"),
                ColumnRef::qualified("t", "id"),
            )],
        );
        let table = Executor::new(&operators()).run(&plan).unwrap();
        // 25.0 joins 25 and 31 joins 31, in probe order.
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows()[0][2], Value::str("FC Barcelona"));
        assert_eq!(table.rows()[1][2], Value::str("Juventus"));
    }

    #[test]
    fn distinct_deduplicates() {
        // Each of the three teams once per player.
        let plan = Plan::scan("p")
            .join(Plan::scan("t"), vec![])
            .project_named(&[("t.name", "team")])
            .distinct();
        assert_eq!(Executor::new(&operators()).run(&plan).unwrap().len(), 3);
    }

    #[test]
    fn join_schema_is_qualified_concat() {
        let table = Executor::new(&operators())
            .run(&players_join_teams())
            .unwrap();
        let name = ColumnRef::qualified("t", "name");
        assert_eq!(table.schema().index_of(&name).unwrap(), 4);
    }

    #[test]
    fn relation_schema_through_catalog() {
        let catalog = catalog();
        assert!(catalog.relation_schema("w1").is_ok());
        assert!(catalog.relation_schema("nope").is_err());
    }

    /// A provider that fails with `kind` for its first `failures` fetches,
    /// then serves one row.
    struct Flaky {
        failures: std::sync::atomic::AtomicU32,
        kind: ErrorKind,
    }

    impl Flaky {
        fn new(failures: u32, kind: ErrorKind) -> Self {
            Flaky {
                failures: std::sync::atomic::AtomicU32::new(failures),
                kind,
            }
        }
    }

    impl RelationProvider for Flaky {
        fn provider_schema(&self) -> Schema {
            Schema::qualified("f", ["id"])
        }

        fn columns(&self) -> Result<(EncodedScan, usize), ExecError> {
            let left = self.failures.load(Ordering::Relaxed);
            if left > 0 {
                self.failures.store(left - 1, Ordering::Relaxed);
                return Err(ExecError::new(self.kind, "injected"));
            }
            Ok((Arc::new(encode_rows(&[vec![Value::Int(1)]], 1)), 1))
        }
    }

    struct OneProvider<'p> {
        provider: &'p dyn RelationProvider,
    }

    impl Catalog for OneProvider<'_> {
        fn provider(&self, name: &str) -> Option<&dyn RelationProvider> {
            (name == "f").then_some(self.provider)
        }
    }

    #[test]
    fn transient_failures_absorbed_by_retry() {
        let flaky = Flaky::new(2, ErrorKind::Transient);
        let catalog = OneProvider { provider: &flaky };
        let options = ExecOptions {
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: std::time::Duration::ZERO,
                ..RetryPolicy::default()
            },
            deadline: Deadline::none(),
            ..ExecOptions::default()
        };
        let executor = Executor::with_options(&catalog, options);
        let table = executor.run(&Plan::scan("f")).unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(executor.retries(), 2);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_transient_error() {
        let flaky = Flaky::new(10, ErrorKind::Transient);
        let catalog = OneProvider { provider: &flaky };
        let options = ExecOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: std::time::Duration::ZERO,
                ..RetryPolicy::default()
            },
            deadline: Deadline::none(),
            ..ExecOptions::default()
        };
        let executor = Executor::with_options(&catalog, options);
        let err = executor.run(&Plan::scan("f")).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Transient);
        assert_eq!(executor.retries(), 2, "two retries after the first attempt");
    }

    #[test]
    fn permanent_failures_are_not_retried() {
        let flaky = Flaky::new(1, ErrorKind::Permanent);
        let catalog = OneProvider { provider: &flaky };
        let executor = Executor::new(&catalog);
        let err = executor.run(&Plan::scan("f")).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Permanent);
        assert_eq!(executor.retries(), 0);
    }

    #[test]
    fn prefetch_fills_the_shared_cache_that_a_later_scan_replays() {
        let options = || ExecOptions {
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: std::time::Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..ExecOptions::default()
        };
        // One absorbed transient: the prefetch pays the retry, the scan
        // after it fetches nothing.
        let flaky = Flaky::new(1, ErrorKind::Transient);
        let catalog = OneProvider { provider: &flaky };
        let cache = ScanCache::new();
        let prefetcher = Executor::with_options(&catalog, options()).with_scan_cache(&cache);
        prefetcher.prefetch("f").unwrap();
        assert_eq!(prefetcher.retries(), 1);
        let runner = Executor::with_options(&catalog, options()).with_scan_cache(&cache);
        assert_eq!(runner.run(&Plan::scan("f")).unwrap().len(), 1);
        assert_eq!(runner.retries(), 0);
        assert_eq!(cache.stats().misses, 1);

        // A failed prefetch leaves its error for the scan to replay,
        // although the provider would now succeed.
        let dead = Flaky::new(1, ErrorKind::Permanent);
        let catalog = OneProvider { provider: &dead };
        let cache = ScanCache::new();
        let executor = Executor::with_options(&catalog, options()).with_scan_cache(&cache);
        let err = executor.prefetch("f").unwrap_err();
        assert_eq!(executor.run(&Plan::scan("f")).unwrap_err(), err);
    }

    #[test]
    fn expired_deadline_times_out_before_fetching() {
        let catalog = catalog();
        let options = ExecOptions {
            retry: RetryPolicy::none(),
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..ExecOptions::default()
        };
        let err = Executor::with_options(&catalog, options)
            .run(&Plan::scan("w1"))
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Timeout);
    }

    #[test]
    fn guard_records_and_breaks_the_scan() {
        use crate::resilience::{BreakerConfig, BreakerRegistry};
        let flaky = Flaky::new(100, ErrorKind::Permanent);
        let catalog = OneProvider { provider: &flaky };
        let registry = BreakerRegistry::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: std::time::Duration::from_secs(60),
        });
        for _ in 0..2 {
            let executor = Executor::new(&catalog).with_guard(&registry);
            assert!(executor.run(&Plan::scan("f")).is_err());
        }
        // Third run is rejected by the open breaker without touching the
        // provider: the failure count stays at 2.
        let executor = Executor::new(&catalog).with_guard(&registry);
        let err = executor.run(&Plan::scan("f")).unwrap_err();
        assert!(err.message.contains("circuit breaker open"), "{err}");
        let snapshot = registry.snapshot();
        assert_eq!(snapshot[0].state, "open");
        assert_eq!(snapshot[0].failures_total, 2);
    }
}
