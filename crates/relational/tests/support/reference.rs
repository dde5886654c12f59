//! The reference interpreter: the oracle the columnar engine is held to.
//!
//! It evaluates a [`Plan`] row at a time over the rows of the tables a
//! [`MemoryCatalog`] holds, as they were registered — σ by `Value ==` on
//! two non-NULL cells, π by index, nested-loop joins in probe × build
//! order, first-occurrence distinct — and shares no evaluation code with
//! the engine: not its operators, its term encoding or its scan cache.
//! What it does share is the specification: `Value`'s coercing equality,
//! `Schema::index_of`'s column resolution, and the error each shape
//! problem is reported with, so a test can compare rows, row order *and*
//! error text.
//!
//! Include it with `#[path = "support/reference.rs"] mod reference;`.

use std::collections::HashSet;

use mdm_relational::algebra::Plan;
use mdm_relational::schema::{ColumnRef, Schema};
use mdm_relational::{ExecError, MemoryCatalog, Table, Tuple};

/// Evaluates `plan` against `catalog`, as [`Executor::run`] must.
///
/// [`Executor::run`]: mdm_relational::Executor::run
pub fn run(plan: &Plan, catalog: &MemoryCatalog) -> Result<Table, ExecError> {
    let (schema, rows) = eval(plan, catalog)?;
    Table::new(schema, rows).map_err(ExecError::permanent)
}

fn eval(plan: &Plan, catalog: &MemoryCatalog) -> Result<(Schema, Vec<Tuple>), ExecError> {
    match plan {
        Plan::Scan { relation } => {
            let table = catalog.table(relation).ok_or_else(|| {
                ExecError::permanent(format!("unknown relation '{relation}' in catalog"))
            })?;
            let schema = table.schema().clone();
            if schema.is_empty() {
                return Err(ExecError::permanent(format!(
                    "relation '{relation}' has no columns; a plan must produce at least one"
                )));
            }
            Ok((schema, table.rows().to_vec()))
        }
        Plan::Filter { input, left, right } => {
            let (schema, mut rows) = eval(input, catalog)?;
            let l = schema.index_of(left).map_err(ExecError::permanent)?;
            let r = schema.index_of(right).map_err(ExecError::permanent)?;
            rows.retain(|row| !row[l].is_null() && !row[r].is_null() && row[l] == row[r]);
            Ok((schema, rows))
        }
        Plan::Project { input, columns } => {
            if columns.is_empty() {
                return Err(ExecError::permanent(
                    "empty projection; a plan must produce at least one column",
                ));
            }
            let (schema, rows) = eval(input, catalog)?;
            let indices = columns
                .iter()
                .map(|(source, _)| schema.index_of(source).map_err(ExecError::permanent))
                .collect::<Result<Vec<usize>, _>>()?;
            let out_schema = Schema::new(columns.iter().map(|(_, name)| name.clone()).collect());
            let out = rows
                .iter()
                .map(|row| indices.iter().map(|&i| row[i].clone()).collect())
                .collect();
            Ok((out_schema, out))
        }
        Plan::Join { left, right, on } => {
            let (left_schema, left_rows) = eval(left, catalog)?;
            let (right_schema, right_rows) = eval(right, catalog)?;
            let index = |schema: &Schema, column: &ColumnRef| {
                schema
                    .index_of(column)
                    .map_err(|e| ExecError::permanent(format!("join key: {e}")))
            };
            let left_keys = on
                .iter()
                .map(|(l, _)| index(&left_schema, l))
                .collect::<Result<Vec<usize>, _>>()?;
            let right_keys = on
                .iter()
                .map(|(_, r)| index(&right_schema, r))
                .collect::<Result<Vec<usize>, _>>()?;
            let mut out = Vec::new();
            // Probe × build order: each left row meets the right rows in
            // their original order. NULL keys never match on either side.
            for left_row in &left_rows {
                if left_keys.iter().any(|&i| left_row[i].is_null()) {
                    continue;
                }
                for right_row in &right_rows {
                    if right_keys.iter().any(|&i| right_row[i].is_null()) {
                        continue;
                    }
                    if left_keys
                        .iter()
                        .zip(&right_keys)
                        .all(|(&l, &r)| left_row[l] == right_row[r])
                    {
                        out.push([left_row.as_slice(), right_row].concat());
                    }
                }
            }
            Ok((left_schema.concat(&right_schema), out))
        }
        Plan::Distinct { input } => {
            let (schema, mut rows) = eval(input, catalog)?;
            let mut seen = HashSet::new();
            rows.retain(|row| seen.insert(row.clone()));
            Ok((schema, rows))
        }
    }
}
