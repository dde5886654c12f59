//! The row plane: a tuple-at-a-time reference interpreter.
//!
//! Each operator implements [`Operator`]: a pull-based iterator of tuples
//! with a known output schema, and nothing else — no batches, no selection
//! vectors, no worker pool. The served plane is
//! [`columnar`](crate::columnar); this one is what
//! [`Layout::Row`](crate::Layout::Row) selects, for a whole plan, kept
//! small enough to read in one sitting because the property tests and
//! goldens hold the columnar kernels to it. It covers exactly the shapes
//! the columnar plane does — scan, σ, π, inner ⋈, ∪, δ — and nothing
//! reaches it from a columnar plan.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::executor::ExecError;
use crate::expr::Expr;
use crate::schema::Schema;
use crate::value::Tuple;

/// A pull-based operator: yields tuples until exhausted.
pub trait Operator {
    /// The operator's output schema.
    fn schema(&self) -> &Schema;
    /// The next tuple, `None` when exhausted.
    fn next(&mut self) -> Option<Result<Tuple, ExecError>>;
}

/// Drains an operator to completion.
pub fn drain(mut op: Box<dyn Operator>) -> Result<Vec<Tuple>, ExecError> {
    let mut out = Vec::new();
    while let Some(tuple) = op.next() {
        out.push(tuple?);
    }
    Ok(out)
}

/// Scans a materialised row set, possibly shared with sibling branches
/// through the per-query scan cache (cloning a tuple clones interned,
/// pointer-sized cells).
pub struct ScanExec {
    schema: Schema,
    rows: Arc<Vec<Tuple>>,
    cursor: usize,
}

impl ScanExec {
    /// A scan over owned rows, or over rows shared with other operators
    /// (no upfront copy).
    pub fn new(schema: Schema, rows: impl Into<Arc<Vec<Tuple>>>) -> Self {
        ScanExec {
            schema,
            rows: rows.into(),
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

/// The hash of a tuple's key columns. Uses `Value`'s own coercing `Hash`
/// (numerics hash through their f64 bits), so equal keys always land in
/// the same bucket.
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
}

impl HashJoinExec {
    /// Builds the hash table eagerly from `right`, pre-sized to the build
    /// cardinality (known exactly: build rows come out of the scan cache).
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    ) -> Result<Self, ExecError> {
        let schema = left.schema().concat(right.schema());
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
        })
    }

    /// Probes one row against the build table, appending combined rows
    /// (matches keep build-insertion order — bucket ids are appended in
    /// build order).
    fn probe_one(&self, probe: &Tuple, out: &mut Vec<Tuple>) {
        if self.left_keys.iter().any(|&k| probe[k].is_null()) {
            return;
        }
        let Some(bucket) = self.table.buckets.get(&key_hash(probe, &self.left_keys)) else {
            return;
        };
        for &row_id in bucket {
            let build = &self.table.rows[row_id as usize];
            if keys_match(probe, &self.left_keys, build, &self.table.right_keys) {
                let mut combined = probe.clone();
                combined.extend(build.iter().cloned());
                out.push(combined);
            }
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
}

/// δ — duplicate elimination (materialising the *seen* set only).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnRef;
    use crate::value::Value;

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
        let join = HashJoinExec::new(Box::new(left), Box::new(teams()), vec![0], vec![0]).unwrap();
        let rows = drain(Box::new(join)).unwrap();
        // 25.0 joins 25 and 31 joins 31: coercing hash and equality agree.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], Value::str("FC Barcelona"));
        assert_eq!(rows[1][2], Value::str("Juventus"));
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
    fn join_schema_is_qualified_concat() {
        let join =
            HashJoinExec::new(Box::new(players()), Box::new(teams()), vec![2], vec![0]).unwrap();
        assert_eq!(
            join.schema()
                .index_of(&ColumnRef::qualified("w2", "name"))
                .unwrap(),
            4
        );
    }
}
