//! Volcano-style physical operators.
//!
//! Each operator implements [`Operator`]: a pull-based iterator of tuples
//! with a known output schema. The executor builds an operator tree from a
//! logical [`Plan`](crate::Plan) and drains the root. Operators are
//! deliberately simple — MDM federates *metadata-mediated* queries whose
//! inputs are wrapper row sets (thousands to low millions of rows), so hash
//! joins and in-memory sorts are the right tools.
//!
//! The batch interface is zero-copy: [`Operator::next_block`] yields
//! [`Batch`]es — an `Arc`-shared row store plus a selection — so scans,
//! filters and distincts move row *ids*, not row *bytes*. Only operators
//! that compute new tuples (project, join) materialise, and even then each
//! cell is an interned [`Value`] whose clone is pointer-sized.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::columnar::{self, ColOperator};
use crate::executor::ExecError;
use crate::expr::Expr;
use crate::pool::Pool;
use crate::schema::Schema;
use crate::value::{Tuple, Value};

/// The default number of tuples pulled per [`Operator::next_batch`] call.
pub const DEFAULT_BATCH: usize = 1024;

/// How a [`Batch`] selects rows from its shared store.
#[derive(Clone, Debug)]
enum Sel {
    /// Every row in the store, in order.
    All,
    /// The contiguous run `[start, end)` of the store.
    Range(u32, u32),
    /// Explicit row ids into the store, in output order.
    Rows(Vec<u32>),
}

/// A reference-counted batch of tuples: an `Arc`-shared row store plus a
/// selection over it. Filters and distincts emit new selections over the
/// *same* store, so passing a batch down the pipeline never copies tuples.
#[derive(Clone, Debug)]
pub struct Batch {
    rows: Arc<Vec<Tuple>>,
    sel: Sel,
}

impl Batch {
    /// A batch owning freshly materialised rows (project/join outputs).
    pub fn from_vec(rows: Vec<Tuple>) -> Self {
        Batch {
            rows: Arc::new(rows),
            sel: Sel::All,
        }
    }

    /// A batch over the contiguous run `[start, end)` of a shared store.
    pub fn range(rows: Arc<Vec<Tuple>>, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= rows.len());
        let sel = if start == 0 && end == rows.len() {
            Sel::All
        } else {
            Sel::Range(start as u32, end as u32)
        };
        Batch { rows, sel }
    }

    /// A batch selecting explicit row ids of a shared store.
    pub fn with_sel(rows: Arc<Vec<Tuple>>, sel: Vec<u32>) -> Self {
        Batch {
            rows,
            sel: Sel::Rows(sel),
        }
    }

    /// The shared row store this batch selects from.
    pub fn store(&self) -> &Arc<Vec<Tuple>> {
        &self.rows
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Sel::All => self.rows.len(),
            Sel::Range(s, e) => (e - s) as usize,
            Sel::Rows(ids) => ids.len(),
        }
    }

    /// True when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row id in the underlying store of the `i`-th selected row.
    pub fn row_id(&self, i: usize) -> u32 {
        match &self.sel {
            Sel::All => i as u32,
            Sel::Range(s, _) => s + i as u32,
            Sel::Rows(ids) => ids[i],
        }
    }

    /// The `i`-th selected row.
    pub fn get(&self, i: usize) -> &Tuple {
        &self.rows[self.row_id(i) as usize]
    }

    /// Iterates the selected rows in order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The selected rows as owned tuples (cloning cells is pointer-cheap).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }

    /// The selected rows as owned tuples, moving out of the store when this
    /// batch is its sole owner and selects everything.
    pub fn into_tuples(self) -> Vec<Tuple> {
        if matches!(self.sel, Sel::All) {
            match Arc::try_unwrap(self.rows) {
                Ok(rows) => rows,
                Err(shared) => shared.as_ref().clone(),
            }
        } else {
            self.to_tuples()
        }
    }
}

/// A pull-based operator: yields tuples until exhausted.
pub trait Operator {
    /// The operator's output schema.
    fn schema(&self) -> &Schema;
    /// The next tuple, `None` when exhausted.
    fn next(&mut self) -> Option<Result<Tuple, ExecError>>;

    /// Up to roughly `max` tuples at once, `None` when exhausted. Batches
    /// amortise the per-tuple dynamic dispatch of [`Operator::next`] across
    /// the pipeline; a returned batch is never empty. The default pulls
    /// tuple-at-a-time; vectorising operators override it.
    fn next_batch(&mut self, max: usize) -> Option<Result<Vec<Tuple>, ExecError>> {
        let mut out = Vec::new();
        while out.len() < max.max(1) {
            match self.next() {
                Some(Ok(tuple)) => out.push(tuple),
                Some(Err(e)) => return Some(Err(e)),
                None => break,
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(Ok(out))
        }
    }

    /// Up to roughly `max` tuples as a shared [`Batch`], `None` when
    /// exhausted; a returned batch is never empty. This is the zero-copy
    /// path: scan/filter/distinct override it to pass row ids instead of
    /// rows. The default wraps [`Operator::next_batch`].
    fn next_block(&mut self, max: usize) -> Option<Result<Batch, ExecError>> {
        match self.next_batch(max)? {
            Ok(rows) => Some(Ok(Batch::from_vec(rows))),
            Err(e) => Some(Err(e)),
        }
    }
}

/// Drains an operator to completion.
pub fn drain(mut op: Box<dyn Operator>) -> Result<Vec<Tuple>, ExecError> {
    let mut out = Vec::new();
    while let Some(block) = op.next_block(DEFAULT_BATCH) {
        out.extend(block?.into_tuples());
    }
    Ok(out)
}

/// Scans a materialised row set, possibly shared with sibling branches
/// through the per-query scan cache. Blocks reference the shared store
/// directly — a scan never copies a tuple.
pub struct ScanExec {
    schema: Schema,
    rows: Arc<Vec<Tuple>>,
    cursor: usize,
}

impl ScanExec {
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        ScanExec::shared(schema, Arc::new(rows))
    }

    /// A scan over rows shared with other operators (no upfront copy).
    pub fn shared(schema: Schema, rows: Arc<Vec<Tuple>>) -> Self {
        ScanExec {
            schema,
            rows,
            cursor: 0,
        }
    }
}

impl Operator for ScanExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Result<Tuple, ExecError>> {
        let tuple = self.rows.get(self.cursor)?.clone();
        self.cursor += 1;
        Some(Ok(tuple))
    }

    fn next_batch(&mut self, max: usize) -> Option<Result<Vec<Tuple>, ExecError>> {
        match self.next_block(max)? {
            Ok(block) => Some(Ok(block.into_tuples())),
            Err(e) => Some(Err(e)),
        }
    }

    fn next_block(&mut self, max: usize) -> Option<Result<Batch, ExecError>> {
        if self.cursor >= self.rows.len() {
            return None;
        }
        let end = (self.cursor + max.max(1)).min(self.rows.len());
        let block = Batch::range(Arc::clone(&self.rows), self.cursor, end);
        self.cursor = end;
        Some(Ok(block))
    }
}

/// σ — filters rows by a predicate.
pub struct FilterExec {
    input: Box<dyn Operator>,
    predicate: Expr,
}

impl FilterExec {
    pub fn new(input: Box<dyn Operator>, predicate: Expr) -> Self {
        FilterExec { input, predicate }
    }
}

impl Operator for FilterExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Option<Result<Tuple, ExecError>> {
        loop {
            let tuple = match self.input.next()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            };
            match self.predicate.eval_predicate(self.input.schema(), &tuple) {
                Ok(true) => return Some(Ok(tuple)),
                Ok(false) => continue,
                Err(e) => return Some(Err(ExecError::permanent(e.0))),
            }
        }
    }

    fn next_batch(&mut self, max: usize) -> Option<Result<Vec<Tuple>, ExecError>> {
        match self.next_block(max)? {
            Ok(block) => Some(Ok(block.into_tuples())),
            Err(e) => Some(Err(e)),
        }
    }

    fn next_block(&mut self, max: usize) -> Option<Result<Batch, ExecError>> {
        loop {
            let block = match self.input.next_block(max)? {
                Ok(b) => b,
                Err(e) => return Some(Err(e)),
            };
            // Selection-vector filtering: keep row ids, not rows.
            let mut sel = Vec::with_capacity(block.len());
            for i in 0..block.len() {
                match self
                    .predicate
                    .eval_predicate(self.input.schema(), block.get(i))
                {
                    Ok(true) => sel.push(block.row_id(i)),
                    Ok(false) => {}
                    Err(e) => return Some(Err(ExecError::permanent(e.0))),
                }
            }
            if !sel.is_empty() {
                return Some(Ok(Batch::with_sel(Arc::clone(block.store()), sel)));
            }
        }
    }
}

/// π — computes output expressions.
pub struct ProjectExec {
    input: Box<dyn Operator>,
    exprs: Vec<Expr>,
    schema: Schema,
}

impl ProjectExec {
    pub fn new(input: Box<dyn Operator>, exprs: Vec<Expr>, schema: Schema) -> Self {
        ProjectExec {
            input,
            exprs,
            schema,
        }
    }
}

impl Operator for ProjectExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Result<Tuple, ExecError>> {
        let tuple = match self.input.next()? {
            Ok(t) => t,
            Err(e) => return Some(Err(e)),
        };
        let mut out = Vec::with_capacity(self.exprs.len());
        for expr in &self.exprs {
            match expr.eval(self.input.schema(), &tuple) {
                Ok(v) => out.push(v),
                Err(e) => return Some(Err(ExecError::permanent(e.0))),
            }
        }
        Some(Ok(out))
    }

    fn next_batch(&mut self, max: usize) -> Option<Result<Vec<Tuple>, ExecError>> {
        match self.next_block(max)? {
            Ok(block) => Some(Ok(block.into_tuples())),
            Err(e) => Some(Err(e)),
        }
    }

    fn next_block(&mut self, max: usize) -> Option<Result<Batch, ExecError>> {
        let block = match self.input.next_block(max)? {
            Ok(b) => b,
            Err(e) => return Some(Err(e)),
        };
        let mut out = Vec::with_capacity(block.len());
        for tuple in block.iter() {
            let mut projected = Vec::with_capacity(self.exprs.len());
            for expr in &self.exprs {
                match expr.eval(self.input.schema(), tuple) {
                    Ok(v) => projected.push(v),
                    Err(e) => return Some(Err(ExecError::permanent(e.0))),
                }
            }
            out.push(projected);
        }
        Some(Ok(Batch::from_vec(out)))
    }
}

/// The right-side build table of a hash join: rows materialised once, in
/// build order, and buckets mapping memoised *key hashes* to row ids. A
/// bucket hit is verified with the coercing `Value` equality, so hash
/// collisions cannot create phantom matches and cross-type numeric keys
/// (`25` vs `25.0`) keep joining exactly as before.
struct JoinTable {
    rows: Vec<Tuple>,
    buckets: HashMap<u64, Vec<u32>>,
    right_keys: Vec<usize>,
}

/// The hash of a tuple's key columns, computed once per row per batch.
/// Uses `Value`'s own coercing `Hash` (numerics hash through their f64
/// bits), so equal keys always land in the same bucket.
fn key_hash(row: &Tuple, keys: &[usize]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for &k in keys {
        row[k].hash(&mut hasher);
    }
    hasher.finish()
}

fn keys_match(probe: &Tuple, left_keys: &[usize], build: &Tuple, right_keys: &[usize]) -> bool {
    left_keys
        .iter()
        .zip(right_keys)
        .all(|(&l, &r)| probe[l] == build[r])
}

/// ⋈ — hash equi-join. Builds on the right input, probes with the left.
///
/// NULL join keys never match (SQL semantics): a wrapper row missing its
/// identifier cannot join, it is *not* an error — schema evolution routinely
/// produces rows without the new attributes.
pub struct HashJoinExec {
    left: Box<dyn Operator>,
    schema: Schema,
    left_keys: Vec<usize>,
    table: JoinTable,
    /// Pending output rows from the current probe (a reversed stack).
    pending: Vec<Tuple>,
    /// For left joins: width of the right side (to emit NULLs) and whether
    /// to emit unmatched probe rows.
    right_width: usize,
    emit_unmatched_left: bool,
    /// When set, probe batches at least [`PARALLEL_PROBE_MIN`] rows wide
    /// are split into contiguous chunks probed on pool workers.
    pool: Option<Arc<Pool>>,
}

/// Probe batches below this width are not worth fanning out.
const PARALLEL_PROBE_MIN: usize = 512;

/// Probes the selected rows `[start, end)` of `block` against the build
/// table, appending combined rows in probe order (matches of one probe row
/// keep build-insertion order — bucket ids are appended in build order).
#[allow(clippy::too_many_arguments)]
fn probe_range(
    table: &JoinTable,
    left_keys: &[usize],
    right_width: usize,
    emit_unmatched_left: bool,
    block: &Batch,
    hashes: &[u64],
    start: usize,
    end: usize,
    out: &mut Vec<Tuple>,
) {
    for (i, hash) in hashes.iter().enumerate().take(end).skip(start) {
        let probe = block.get(i);
        let mut matched = false;
        if !left_keys.iter().any(|&k| probe[k].is_null()) {
            if let Some(bucket) = table.buckets.get(hash) {
                for &row_id in bucket {
                    let build = &table.rows[row_id as usize];
                    if keys_match(probe, left_keys, build, &table.right_keys) {
                        matched = true;
                        let mut combined = probe.clone();
                        combined.extend(build.iter().cloned());
                        out.push(combined);
                    }
                }
            }
        }
        if !matched && emit_unmatched_left {
            let mut combined = probe.clone();
            combined.extend(std::iter::repeat_n(Value::Null, right_width));
            out.push(combined);
        }
    }
}

impl HashJoinExec {
    /// Builds the hash table eagerly from `right`, pre-sized to the build
    /// cardinality (known exactly: build rows come out of the scan cache).
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        emit_unmatched_left: bool,
    ) -> Result<Self, ExecError> {
        let schema = left.schema().concat(right.schema());
        let right_width = right.schema().len();
        let rows = drain(right)?;
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if right_keys.iter().any(|&k| row[k].is_null()) {
                continue;
            }
            buckets
                .entry(key_hash(row, &right_keys))
                .or_default()
                .push(i as u32);
        }
        Ok(HashJoinExec {
            left,
            schema,
            left_keys,
            table: JoinTable {
                rows,
                buckets,
                right_keys,
            },
            pending: Vec::new(),
            right_width,
            emit_unmatched_left,
            pool: None,
        })
    }

    /// Enables partitioned parallel probing of wide batches on `pool`.
    /// Output order is unchanged: chunks are contiguous and re-concatenated
    /// in chunk order, so the row stream is identical to sequential.
    pub fn with_pool(mut self, pool: Option<Arc<Pool>>) -> Self {
        self.pool = pool.filter(|p| p.size() > 1);
        self
    }

    fn probe_block(&self, block: &Batch, out: &mut Vec<Tuple>) {
        // Memoise the probe-key hashes once per batch; both the sequential
        // and the partitioned path below reuse them.
        let hashes: Vec<u64> = block
            .iter()
            .map(|row| key_hash(row, &self.left_keys))
            .collect();
        if let Some(pool) = &self.pool {
            if block.len() >= PARALLEL_PROBE_MIN {
                let chunk = block.len().div_ceil(pool.size());
                let ranges: Vec<(usize, usize)> = (0..block.len())
                    .step_by(chunk.max(1))
                    .map(|s| (s, (s + chunk).min(block.len())))
                    .collect();
                let (table, keys) = (&self.table, &self.left_keys);
                let (width, emit) = (self.right_width, self.emit_unmatched_left);
                let (hashes, block) = (&hashes, &block);
                let probed = pool.run(ranges.len(), |i| {
                    let (start, end) = ranges[i];
                    let mut part = Vec::new();
                    probe_range(
                        table, keys, width, emit, block, hashes, start, end, &mut part,
                    );
                    part
                });
                for part in probed {
                    out.extend(part);
                }
                return;
            }
        }
        probe_range(
            &self.table,
            &self.left_keys,
            self.right_width,
            self.emit_unmatched_left,
            block,
            &hashes,
            0,
            block.len(),
            out,
        );
    }

    /// Probes a single row (the tuple-at-a-time path).
    fn probe_one(&self, probe: &Tuple, out: &mut Vec<Tuple>) {
        let mut matched = false;
        if !self.left_keys.iter().any(|&k| probe[k].is_null()) {
            if let Some(bucket) = self.table.buckets.get(&key_hash(probe, &self.left_keys)) {
                for &row_id in bucket {
                    let build = &self.table.rows[row_id as usize];
                    if keys_match(probe, &self.left_keys, build, &self.table.right_keys) {
                        matched = true;
                        let mut combined = probe.clone();
                        combined.extend(build.iter().cloned());
                        out.push(combined);
                    }
                }
            }
        }
        if !matched && self.emit_unmatched_left {
            let mut combined = probe.clone();
            combined.extend(std::iter::repeat_n(Value::Null, self.right_width));
            out.push(combined);
        }
    }
}

impl Operator for HashJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Result<Tuple, ExecError>> {
        loop {
            if let Some(row) = self.pending.pop() {
                return Some(Ok(row));
            }
            let probe = match self.left.next()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            };
            let mut matched = Vec::new();
            self.probe_one(&probe, &mut matched);
            // `pending` is a stack: reverse so popping replays probe order.
            matched.reverse();
            self.pending = matched;
        }
    }

    fn next_batch(&mut self, max: usize) -> Option<Result<Vec<Tuple>, ExecError>> {
        match self.next_block(max)? {
            Ok(block) => Some(Ok(block.into_tuples())),
            Err(e) => Some(Err(e)),
        }
    }

    fn next_block(&mut self, max: usize) -> Option<Result<Batch, ExecError>> {
        let mut out = Vec::new();
        while let Some(row) = self.pending.pop() {
            out.push(row);
        }
        while out.len() < max.max(1) {
            let block = match self.left.next_block(max) {
                None => break,
                Some(Err(e)) => return Some(Err(e)),
                Some(Ok(b)) => b,
            };
            self.probe_block(&block, &mut out);
        }
        if out.is_empty() {
            None
        } else {
            Some(Ok(Batch::from_vec(out)))
        }
    }
}

/// ∪ — concatenates inputs (bag semantics).
pub struct UnionExec {
    inputs: Vec<Box<dyn Operator>>,
    schema: Schema,
    current: usize,
}

impl UnionExec {
    /// All inputs must share an arity; the first input's schema is used.
    pub fn new(inputs: Vec<Box<dyn Operator>>) -> Result<Self, ExecError> {
        let first = inputs
            .first()
            .ok_or_else(|| ExecError::permanent("union of zero inputs"))?;
        let schema = first.schema().clone();
        for input in &inputs {
            if input.schema().len() != schema.len() {
                return Err(ExecError::permanent(format!(
                    "union arity mismatch: {} vs {}",
                    schema,
                    input.schema()
                )));
            }
        }
        Ok(UnionExec {
            inputs,
            schema,
            current: 0,
        })
    }
}

impl Operator for UnionExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Result<Tuple, ExecError>> {
        while self.current < self.inputs.len() {
            match self.inputs[self.current].next() {
                Some(item) => return Some(item),
                None => self.current += 1,
            }
        }
        None
    }

    fn next_batch(&mut self, max: usize) -> Option<Result<Vec<Tuple>, ExecError>> {
        while self.current < self.inputs.len() {
            match self.inputs[self.current].next_batch(max) {
                Some(item) => return Some(item),
                None => self.current += 1,
            }
        }
        None
    }

    fn next_block(&mut self, max: usize) -> Option<Result<Batch, ExecError>> {
        while self.current < self.inputs.len() {
            match self.inputs[self.current].next_block(max) {
                Some(item) => return Some(item),
                None => self.current += 1,
            }
        }
        None
    }
}

/// δ — duplicate elimination (materialising the *seen* set only; emitted
/// batches are selections over the input's shared store).
pub struct DistinctExec {
    input: Box<dyn Operator>,
    seen: std::collections::HashSet<Tuple>,
}

impl DistinctExec {
    pub fn new(input: Box<dyn Operator>) -> Self {
        DistinctExec {
            input,
            seen: std::collections::HashSet::new(),
        }
    }
}

impl Operator for DistinctExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Option<Result<Tuple, ExecError>> {
        loop {
            let tuple = match self.input.next()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            };
            if self.seen.insert(tuple.clone()) {
                return Some(Ok(tuple));
            }
        }
    }

    fn next_batch(&mut self, max: usize) -> Option<Result<Vec<Tuple>, ExecError>> {
        match self.next_block(max)? {
            Ok(block) => Some(Ok(block.into_tuples())),
            Err(e) => Some(Err(e)),
        }
    }

    fn next_block(&mut self, max: usize) -> Option<Result<Batch, ExecError>> {
        loop {
            let block = match self.input.next_block(max)? {
                Ok(b) => b,
                Err(e) => return Some(Err(e)),
            };
            // Pre-size for the incoming batch so the δ hash table grows in
            // strides instead of rehashing on the hot path.
            self.seen.reserve(block.len());
            let mut sel = Vec::with_capacity(block.len());
            for i in 0..block.len() {
                if self.seen.insert(block.get(i).clone()) {
                    sel.push(block.row_id(i));
                }
            }
            if !sel.is_empty() {
                return Some(Ok(Batch::with_sel(Arc::clone(block.store()), sel)));
            }
        }
    }
}

/// Sort — materialises and sorts by key columns.
pub struct SortExec {
    schema: Schema,
    rows: std::vec::IntoIter<Tuple>,
}

impl SortExec {
    pub fn new(
        input: Box<dyn Operator>,
        keys: Vec<(usize, bool)>, // (column index, descending?)
    ) -> Result<Self, ExecError> {
        let schema = input.schema().clone();
        let mut rows = drain(input)?;
        rows.sort_by(|a, b| {
            for &(index, descending) in &keys {
                let ordering = a[index].cmp(&b[index]);
                let ordering = if descending {
                    ordering.reverse()
                } else {
                    ordering
                };
                if !ordering.is_eq() {
                    return ordering;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(SortExec {
            schema,
            rows: rows.into_iter(),
        })
    }
}

impl Operator for SortExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Result<Tuple, ExecError>> {
        self.rows.next().map(Ok)
    }
}

/// Limit — yields the first `count` tuples.
pub struct LimitExec {
    input: Box<dyn Operator>,
    remaining: usize,
}

impl LimitExec {
    pub fn new(input: Box<dyn Operator>, count: usize) -> Self {
        LimitExec {
            input,
            remaining: count,
        }
    }
}

impl Operator for LimitExec {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Option<Result<Tuple, ExecError>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.input.next()
    }
}

/// Adapter from the columnar plane back into the row plane: decodes each
/// [`columnar::ColumnBatch`] into a materialised [`Batch`]. The executor
/// inserts one wherever a plan stage only exists row-wise (sort) or a
/// hybrid tree mixes layouts (a row-plane join with one columnar side).
pub struct DecodeExec {
    input: Box<dyn ColOperator>,
    schema: Schema,
    buffered: std::collections::VecDeque<Tuple>,
}

impl DecodeExec {
    pub fn new(input: Box<dyn ColOperator>) -> Self {
        let schema = input.schema().clone();
        DecodeExec {
            input,
            schema,
            buffered: std::collections::VecDeque::new(),
        }
    }
}

impl Operator for DecodeExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Result<Tuple, ExecError>> {
        loop {
            if let Some(tuple) = self.buffered.pop_front() {
                return Some(Ok(tuple));
            }
            match self.input.next_cols(DEFAULT_BATCH)? {
                Err(e) => return Some(Err(e)),
                Ok(batch) => self
                    .buffered
                    .extend(columnar::decode_batches(std::slice::from_ref(&batch))),
            }
        }
    }

    fn next_block(&mut self, max: usize) -> Option<Result<Batch, ExecError>> {
        if !self.buffered.is_empty() {
            let rows: Vec<Tuple> = self.buffered.drain(..).collect();
            return Some(Ok(Batch::from_vec(rows)));
        }
        match self.input.next_cols(max)? {
            Err(e) => Some(Err(e)),
            Ok(batch) => Some(Ok(Batch::from_vec(columnar::decode_batches(
                std::slice::from_ref(&batch),
            )))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnRef;

    fn players() -> ScanExec {
        ScanExec::new(
            Schema::qualified("w1", ["id", "pName", "teamId"]),
            vec![
                vec![Value::Int(1), Value::str("Messi"), Value::Int(25)],
                vec![Value::Int(2), Value::str("Lewandowski"), Value::Int(27)],
                vec![Value::Int(3), Value::str("Unattached"), Value::Null],
            ],
        )
    }

    fn teams() -> ScanExec {
        ScanExec::new(
            Schema::qualified("w2", ["id", "name"]),
            vec![
                vec![Value::Int(25), Value::str("FC Barcelona")],
                vec![Value::Int(27), Value::str("Bayern Munich")],
                vec![Value::Int(31), Value::str("Juventus")],
            ],
        )
    }

    #[test]
    fn scan_yields_all_rows() {
        let rows = drain(Box::new(players())).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn scan_blocks_share_the_store() {
        let mut scan = teams();
        let block = scan.next_block(2).unwrap().unwrap();
        assert_eq!(block.len(), 2);
        assert!(Arc::ptr_eq(block.store(), &scan.rows));
        let rest = scan.next_block(16).unwrap().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest.get(0)[1], Value::str("Juventus"));
        assert!(scan.next_block(16).is_none());
    }

    #[test]
    fn filter_drops_nonmatching() {
        let op = FilterExec::new(
            Box::new(players()),
            Expr::col("pName").eq(Expr::lit("Messi")),
        );
        let rows = drain(Box::new(op)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::str("Messi"));
    }

    #[test]
    fn filter_blocks_are_selections_not_copies() {
        let mut op = FilterExec::new(
            Box::new(players()),
            Expr::col("id").binary(crate::expr::BinOp::Gt, Expr::lit(1i64)),
        );
        let block = op.next_block(16).unwrap().unwrap();
        assert_eq!(block.len(), 2);
        // The filter's output selects rows 1 and 2 of the scan's own store.
        assert_eq!(block.row_id(0), 1);
        assert_eq!(block.row_id(1), 2);
        assert_eq!(block.store().len(), 3);
    }

    #[test]
    fn project_computes_and_renames() {
        let op = ProjectExec::new(
            Box::new(players()),
            vec![Expr::col("pName")],
            Schema::bare(["name"]),
        );
        let rows = drain(Box::new(op)).unwrap();
        assert_eq!(rows[0], vec![Value::str("Messi")]);
    }

    #[test]
    fn hash_join_matches_and_skips_nulls() {
        let join = HashJoinExec::new(
            Box::new(players()),
            Box::new(teams()),
            vec![2], // teamId
            vec![0], // id
            false,
        )
        .unwrap();
        let mut rows = drain(Box::new(join)).unwrap();
        rows.sort();
        assert_eq!(rows.len(), 2); // Unattached (NULL teamId) drops out
        assert_eq!(rows[0][1], Value::str("Messi"));
        assert_eq!(rows[0][4], Value::str("FC Barcelona"));
    }

    #[test]
    fn hash_join_crosses_numeric_types() {
        let left = ScanExec::new(
            Schema::qualified("l", ["k"]),
            vec![vec![Value::Float(25.0)], vec![Value::Int(31)]],
        );
        let join =
            HashJoinExec::new(Box::new(left), Box::new(teams()), vec![0], vec![0], false).unwrap();
        let rows = drain(Box::new(join)).unwrap();
        // 25.0 joins 25 and 31 joins 31: coercing hash and equality agree.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], Value::str("FC Barcelona"));
        assert_eq!(rows[1][2], Value::str("Juventus"));
    }

    #[test]
    fn left_join_emits_nulls_for_unmatched() {
        let join = HashJoinExec::new(
            Box::new(players()),
            Box::new(teams()),
            vec![2],
            vec![0],
            true,
        )
        .unwrap();
        let rows = drain(Box::new(join)).unwrap();
        assert_eq!(rows.len(), 3);
        let unattached = rows
            .iter()
            .find(|r| r[1] == Value::str("Unattached"))
            .unwrap();
        assert!(unattached[3].is_null());
        assert!(unattached[4].is_null());
    }

    #[test]
    fn union_concatenates() {
        let u = UnionExec::new(vec![Box::new(teams()), Box::new(teams())]).unwrap();
        let rows = drain(Box::new(u)).unwrap();
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let narrow = ScanExec::new(Schema::bare(["only"]), vec![]);
        assert!(UnionExec::new(vec![Box::new(teams()), Box::new(narrow)]).is_err());
    }

    #[test]
    fn union_of_zero_inputs_rejected() {
        assert!(UnionExec::new(vec![]).is_err());
    }

    #[test]
    fn distinct_deduplicates() {
        let u = UnionExec::new(vec![Box::new(teams()), Box::new(teams())]).unwrap();
        let d = DistinctExec::new(Box::new(u));
        let rows = drain(Box::new(d)).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn sort_orders_rows() {
        let s = SortExec::new(Box::new(teams()), vec![(1, false)]).unwrap();
        let rows = drain(Box::new(s)).unwrap();
        assert_eq!(rows[0][1], Value::str("Bayern Munich"));
        let s = SortExec::new(Box::new(teams()), vec![(1, true)]).unwrap();
        let rows = drain(Box::new(s)).unwrap();
        assert_eq!(rows[0][1], Value::str("Juventus"));
    }

    #[test]
    fn limit_truncates() {
        let l = LimitExec::new(Box::new(teams()), 2);
        let rows = drain(Box::new(l)).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn join_schema_is_qualified_concat() {
        let join = HashJoinExec::new(
            Box::new(players()),
            Box::new(teams()),
            vec![2],
            vec![0],
            false,
        )
        .unwrap();
        assert_eq!(
            join.schema()
                .index_of(&ColumnRef::qualified("w2", "name"))
                .unwrap(),
            4
        );
    }

    #[test]
    fn batch_and_block_paths_agree() {
        // The same pipeline drained three ways yields identical rows.
        let build = |batch: usize| {
            let join = HashJoinExec::new(
                Box::new(players()),
                Box::new(teams()),
                vec![2],
                vec![0],
                true,
            )
            .unwrap();
            let d = DistinctExec::new(Box::new(join));
            (d, batch)
        };
        let (mut row_op, _) = build(1);
        let mut by_row = Vec::new();
        while let Some(t) = row_op.next() {
            by_row.push(t.unwrap());
        }
        for batch in [1, 2, 1024] {
            let (mut op, max) = build(batch);
            let mut out = Vec::new();
            while let Some(b) = op.next_block(max) {
                out.extend(b.unwrap().into_tuples());
            }
            assert_eq!(out, by_row, "batch={batch}");
        }
    }
}
