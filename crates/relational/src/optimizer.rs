//! Plan optimization: the cost-based pass.
//!
//! The paper's prototype unions SQLite queries without optimisation; a
//! production federation layer wants more. [`OptimizeMode`] offers what
//! ships and its oracle:
//!
//! * **off** — execute the rewriting exactly as produced (the reference
//!   `prop_optimizer` holds the other mode against);
//! * **cost** (the default) — predicate pushdown (filters sink below joins
//!   to the side that can evaluate them), then the passes driven by the
//!   [`stats`](crate::stats) catalog: projection pruning (scans are
//!   narrowed to the columns the plan above actually consumes, shrinking
//!   every downstream join gather) and greedy join-region reordering
//!   (cheapest estimated join first, left-deep, smaller input on the right
//!   because the hash join always builds right).
//!
//! The served path optimizes one UCQ branch at a time, and a branch plan
//! holds no δ: the branches' union and its one δ are the merge's. Every
//! pass still recurses through δ unchanged, and pruning restarts at it,
//! so a plan under δ optimizes to an equivalent one (`prop_optimizer`
//! holds both shapes to the reference).
//!
//! Every rewrite is semantics-preserving **including output column
//! order**: when reordering changes the left-to-right leaf order of a
//! join region, the region is wrapped in an identity projection restoring
//! the original schema, so optimized and unoptimized plans render
//! byte-identical tables.

use std::collections::HashSet;

use crate::algebra::{projection_list, Plan};
use crate::metrics;
use crate::schema::{ColumnRef, Schema};

/// Cardinality statistics for base relations; the cost model's input.
/// Implemented by the process-wide [`StatsCatalog`](crate::stats) and by
/// test/bench fixtures.
pub trait Statistics {
    /// Estimated row count of `relation`, when known.
    fn estimated_rows(&self, relation: &str) -> Option<usize>;

    /// Estimated distinct values of `column` (qualified, e.g. `w1.id`) in
    /// `relation`, when known.
    fn distinct_values(&self, _relation: &str, _column: &str) -> Option<usize> {
        None
    }

    /// Fraction of NULLs in `column` of `relation`, when known.
    fn null_fraction(&self, _relation: &str, _column: &str) -> Option<f64> {
        None
    }
}

/// How much optimization to apply to execution plans.
///
/// The rewriting itself (the Figure-8 algebra expression) is never
/// touched — all modes optimize the *executed* plan only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OptimizeMode {
    /// Execute rewritings verbatim.
    Off,
    /// Full cost-based pass driven by the stats catalog.
    #[default]
    Cost,
}

impl OptimizeMode {
    /// Parses the CLI/server spelling (`off`, `cost`).
    pub fn parse(text: &str) -> Option<OptimizeMode> {
        match text.to_ascii_lowercase().as_str() {
            "off" | "none" => Some(OptimizeMode::Off),
            "cost" => Some(OptimizeMode::Cost),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            OptimizeMode::Off => "off",
            OptimizeMode::Cost => "cost",
        }
    }
}

impl std::fmt::Display for OptimizeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The optimizer; all rewrites are semantics-preserving.
pub struct Optimizer<'a> {
    stats: &'a dyn Statistics,
    /// Resolves relation schemas, needed to decide where predicates can
    /// sink and which scan columns are consumed.
    resolve: &'a dyn Fn(&str) -> Result<Schema, String>,
}

/// Pre-flight analysis of one join region (see
/// [`Optimizer::analyze_region`]); its existence means reordering is safe.
struct RegionPrep {
    /// Estimated rows per unit.
    cards: Vec<usize>,
    /// Per join condition, the (left unit, right unit) it connects.
    edges: Vec<(usize, usize)>,
    /// The region's output schema in original unit order.
    original_schema: Schema,
}

impl<'a> Optimizer<'a> {
    pub fn new(
        stats: &'a dyn Statistics,
        resolve: &'a dyn Fn(&str) -> Result<Schema, String>,
    ) -> Self {
        Optimizer { stats, resolve }
    }

    /// Applies the full cost-based pass (the [`OptimizeMode::Cost`]
    /// pipeline).
    pub fn optimize(&self, plan: Plan) -> Plan {
        self.optimize_with(OptimizeMode::Cost, plan)
    }

    /// Applies the rewrites selected by `mode`.
    pub fn optimize_with(&self, mode: OptimizeMode, plan: Plan) -> Plan {
        match mode {
            OptimizeMode::Off => plan,
            OptimizeMode::Cost => {
                let plan = self.rewrite(plan);
                let plan = self.prune(plan, None);
                self.reorder(plan)
            }
        }
    }

    /// Predicate pushdown.
    fn rewrite(&self, plan: Plan) -> Plan {
        match plan {
            Plan::Filter { input, left, right } => {
                let input = self.rewrite(*input);
                self.push_filter(input, left, right)
            }
            Plan::Project { input, columns } => Plan::Project {
                input: Box::new(self.rewrite(*input)),
                columns,
            },
            Plan::Join { left, right, on } => Plan::Join {
                left: Box::new(self.rewrite(*left)),
                right: Box::new(self.rewrite(*right)),
                on,
            },
            Plan::Distinct { input } => Plan::Distinct {
                input: Box::new(self.rewrite(*input)),
            },
            leaf @ Plan::Scan { .. } => leaf,
        }
    }

    /// Sinks the equality `a = b` below joins as deep as its two columns
    /// allow; it stays above every other operator.
    fn push_filter(&self, input: Plan, a: ColumnRef, b: ColumnRef) -> Plan {
        match input {
            Plan::Join { left, right, on } => {
                // Sink into whichever side resolves both columns.
                if self.covers(&left, &a, &b) {
                    metrics::record_filter_pushed();
                    Plan::Join {
                        left: Box::new(self.push_filter(*left, a, b)),
                        right,
                        on,
                    }
                } else if self.covers(&right, &a, &b) {
                    metrics::record_filter_pushed();
                    Plan::Join {
                        left,
                        right: Box::new(self.push_filter(*right, a, b)),
                        on,
                    }
                } else {
                    Plan::Join { left, right, on }.filter(a, b)
                }
            }
            other => other.filter(a, b),
        }
    }

    /// True when both columns resolve in the plan's output schema.
    fn covers(&self, plan: &Plan, a: &ColumnRef, b: &ColumnRef) -> bool {
        let Ok(schema) = plan.schema_with(self.resolve) else {
            return false;
        };
        schema.index_of(a).is_ok() && schema.index_of(b).is_ok()
    }

    /// Projection pruning: narrows scans to the columns consumed above.
    ///
    /// `needed` is the set of column references the consumer requires;
    /// `None` means "everything" (no projection above has restarted the
    /// set). The set restarts at projections, widens through filters and
    /// joins by their own references, and resets to "everything"
    /// at distincts — pruning below a `δ` would change which rows are
    /// duplicates.
    fn prune(&self, plan: Plan, needed: Option<&[ColumnRef]>) -> Plan {
        match plan {
            Plan::Project { input, columns } => {
                let mut refs: Vec<ColumnRef> = Vec::new();
                for (column, _) in &columns {
                    if !refs.contains(column) {
                        refs.push(column.clone());
                    }
                }
                let input = self.prune(*input, Some(&refs));
                // A narrowing π the pass inserted on an earlier run looks
                // like an identity projection over the same columns; keep
                // only one so pruning is idempotent.
                let identity = columns.iter().all(|(source, out)| source == out);
                let input = match input {
                    Plan::Project {
                        input: inner,
                        columns: inner_columns,
                    } if identity && inner_columns == columns => *inner,
                    other => other,
                };
                Plan::Project {
                    input: Box::new(input),
                    columns,
                }
            }
            Plan::Filter { input, left, right } => {
                let widened = needed.map(|base| {
                    let mut refs = base.to_vec();
                    for column in [&left, &right] {
                        if !refs.contains(column) {
                            refs.push(column.clone());
                        }
                    }
                    refs
                });
                Plan::Filter {
                    input: Box::new(self.prune(*input, widened.as_deref())),
                    left,
                    right,
                }
            }
            Plan::Join { left, right, on } => {
                let widened = needed.map(|base| {
                    let mut refs = base.to_vec();
                    for (l, r) in &on {
                        if !refs.contains(l) {
                            refs.push(l.clone());
                        }
                        if !refs.contains(r) {
                            refs.push(r.clone());
                        }
                    }
                    refs
                });
                Plan::Join {
                    left: Box::new(self.prune(*left, widened.as_deref())),
                    right: Box::new(self.prune(*right, widened.as_deref())),
                    on,
                }
            }
            Plan::Distinct { input } => Plan::Distinct {
                input: Box::new(self.prune(*input, None)),
            },
            Plan::Scan { relation } => {
                if let Some(needed) = needed {
                    if let Ok(schema) = (self.resolve)(&relation) {
                        let kept: Vec<ColumnRef> = schema
                            .columns()
                            .iter()
                            .filter(|column| needed.iter().any(|wanted| column.matches(wanted)))
                            .cloned()
                            .collect();
                        if !kept.is_empty() && kept.len() < schema.len() {
                            metrics::record_projection_pruned();
                            return Plan::Project {
                                input: Box::new(Plan::Scan { relation }),
                                columns: kept
                                    .into_iter()
                                    .map(|column| (column.clone(), column))
                                    .collect(),
                            };
                        }
                    }
                }
                Plan::Scan { relation }
            }
        }
    }

    /// Greedy join-region reordering: within each maximal tree of joins,
    /// units (non-join subtrees) are re-joined cheapest
    /// estimated join first, left-deep, with the smaller input on the
    /// right (the hash-join build side). Bails out — leaving the region
    /// untouched — whenever statistics are missing, a join condition
    /// cannot be attributed to exactly one unit per side, the region is
    /// not connected, or its schema has ambiguous columns.
    fn reorder(&self, plan: Plan) -> Plan {
        match plan {
            join @ Plan::Join { .. } => self.reorder_region(join),
            Plan::Filter { input, left, right } => Plan::Filter {
                input: Box::new(self.reorder(*input)),
                left,
                right,
            },
            Plan::Project { input, columns } => Plan::Project {
                input: Box::new(self.reorder(*input)),
                columns,
            },
            Plan::Distinct { input } => Plan::Distinct {
                input: Box::new(self.reorder(*input)),
            },
            leaf @ Plan::Scan { .. } => leaf,
        }
    }

    /// Checks that the region rooted at `plan` (a join) can be
    /// safely reordered, returning the data the greedy pass needs.
    fn analyze_region(&self, plan: &Plan) -> Option<RegionPrep> {
        let mut units: Vec<&Plan> = Vec::new();
        let mut conds: Vec<&(ColumnRef, ColumnRef)> = Vec::new();
        region_refs(plan, &mut units, &mut conds);
        if units.len() < 2 || conds.is_empty() {
            return None;
        }
        let cards: Vec<usize> = units
            .iter()
            .map(|unit| self.estimate(unit))
            .collect::<Option<_>>()?;
        let schemas: Vec<Schema> = units
            .iter()
            .map(|unit| unit.schema_with(self.resolve).ok())
            .collect::<Option<_>>()?;
        // The restoring projection selects columns by reference, so every
        // region column must be qualified and unique.
        let mut seen = HashSet::new();
        for schema in &schemas {
            for column in schema.columns() {
                let relation = column.relation.as_ref()?;
                if !seen.insert((relation.clone(), column.name.clone())) {
                    return None;
                }
            }
        }
        let unit_relations: Vec<Vec<&str>> =
            units.iter().map(|unit| unit.scanned_relations()).collect();
        let mut edges = Vec::new();
        for (l, r) in &conds {
            let a = unit_of(&unit_relations, &schemas, l)?;
            let b = unit_of(&unit_relations, &schemas, r)?;
            if a == b {
                return None;
            }
            edges.push((a, b));
        }
        // Connectivity: every unit reachable from unit 0 over conditions.
        let mut reached = vec![false; units.len()];
        reached[0] = true;
        let mut frontier = vec![0usize];
        while let Some(at) = frontier.pop() {
            for &(a, b) in &edges {
                let next = if a == at {
                    b
                } else if b == at {
                    a
                } else {
                    continue;
                };
                if !reached[next] {
                    reached[next] = true;
                    frontier.push(next);
                }
            }
        }
        if reached.iter().any(|r| !r) {
            return None;
        }
        let mut original_schema = Schema::default();
        for schema in &schemas {
            original_schema = original_schema.concat(schema);
        }
        Some(RegionPrep {
            cards,
            edges,
            original_schema,
        })
    }

    /// Reorders one join region (see [`Optimizer::reorder`]).
    fn reorder_region(&self, plan: Plan) -> Plan {
        let Some(prep) = self.analyze_region(&plan) else {
            // Not reorderable: keep the region's shape, but still visit
            // the subtrees hanging below it.
            let Plan::Join { left, right, on } = plan else {
                unreachable!("reorder_region is only called on joins");
            };
            return Plan::Join {
                left: Box::new(self.reorder(*left)),
                right: Box::new(self.reorder(*right)),
                on,
            };
        };
        let mut units: Vec<Plan> = Vec::new();
        let mut conds: Vec<(ColumnRef, ColumnRef)> = Vec::new();
        split_region(plan, &mut units, &mut conds);
        let mut units: Vec<Option<Plan>> = units
            .into_iter()
            .map(|unit| Some(self.reorder(unit)))
            .collect();
        let n = units.len();
        let RegionPrep {
            cards,
            edges,
            original_schema,
        } = prep;
        let mut used = vec![false; conds.len()];
        let mut in_tree = vec![false; n];

        // Seed with the condition promising the cheapest two-way join.
        let mut best: Option<(usize, usize)> = None; // (cond index, cost)
        for (k, &(a, b)) in edges.iter().enumerate() {
            let cost = self.join_estimate(cards[a], cards[b], Some(&conds[k]));
            if best.is_none_or(|(_, best_cost)| cost < best_cost) {
                best = Some((k, cost));
            }
        }
        let (seed, mut tree_card) = best.expect("region has conditions");
        let (a, b) = edges[seed];
        // Smaller input on the right: that is the hash-join build side.
        let (left_unit, right_unit) = if cards[a] >= cards[b] { (a, b) } else { (b, a) };
        let mut on = Vec::new();
        for (k, &(x, y)) in edges.iter().enumerate() {
            if x == left_unit && y == right_unit {
                on.push(conds[k].clone());
                used[k] = true;
            } else if x == right_unit && y == left_unit {
                let (l, r) = conds[k].clone();
                on.push((r, l));
                used[k] = true;
            }
        }
        let mut tree = Plan::Join {
            left: Box::new(units[left_unit].take().expect("unit consumed once")),
            right: Box::new(units[right_unit].take().expect("unit consumed once")),
            on,
        };
        in_tree[left_unit] = true;
        in_tree[right_unit] = true;
        let mut leaf_order = vec![left_unit, right_unit];

        // Grow: always attach the connected unit with the cheapest
        // estimated join against the current tree.
        while leaf_order.len() < n {
            let mut best: Option<(usize, usize)> = None; // (unit, cost)
            for (k, &(x, y)) in edges.iter().enumerate() {
                if used[k] || in_tree[x] == in_tree[y] {
                    continue;
                }
                let unit = if in_tree[x] { y } else { x };
                let cost = self.join_estimate(tree_card, cards[unit], Some(&conds[k]));
                if best.is_none_or(|(best_unit, best_cost)| {
                    cost < best_cost || (cost == best_cost && unit < best_unit)
                }) {
                    best = Some((unit, cost));
                }
            }
            let Some((unit, cost)) = best else {
                // Unreachable given the connectivity check; keep whatever
                // is built rather than panic in release.
                debug_assert!(false, "join region lost connectivity");
                break;
            };
            let unit_right = cards[unit] <= tree_card;
            let mut on = Vec::new();
            for (k, &(x, y)) in edges.iter().enumerate() {
                if used[k] {
                    continue;
                }
                let touches = (in_tree[x] && y == unit) || (in_tree[y] && x == unit);
                if !touches {
                    continue;
                }
                let (l, r) = conds[k].clone();
                let (tree_ref, unit_ref) = if y == unit { (l, r) } else { (r, l) };
                if unit_right {
                    on.push((tree_ref, unit_ref));
                } else {
                    on.push((unit_ref, tree_ref));
                }
                used[k] = true;
            }
            let attached = units[unit].take().expect("unit consumed once");
            tree = if unit_right {
                leaf_order.push(unit);
                Plan::Join {
                    left: Box::new(tree),
                    right: Box::new(attached),
                    on,
                }
            } else {
                leaf_order.insert(0, unit);
                Plan::Join {
                    left: Box::new(attached),
                    right: Box::new(tree),
                    on,
                }
            };
            in_tree[unit] = true;
            tree_card = cost;
        }

        // Conditions whose endpoints both entered the tree before the
        // condition was consumed (cycles) survive as equality filters.
        for (k, cond) in conds.iter().enumerate() {
            if !used[k] {
                let (l, r) = cond.clone();
                tree = tree.filter(l, r);
            }
        }

        // A changed leaf order permutes the join's output columns; restore
        // the original order with an identity projection so downstream
        // output is byte-identical.
        if leaf_order != (0..n).collect::<Vec<_>>() {
            metrics::record_join_reordered();
            tree = Plan::Project {
                input: Box::new(tree),
                columns: original_schema
                    .columns()
                    .iter()
                    .map(|column| (column.clone(), column.clone()))
                    .collect(),
            };
        }
        tree
    }

    /// Estimated output cardinality of `plan`; `None` when a scanned
    /// relation has no statistics. Scans use the catalog; a column
    /// equality keeps half its input; joins divide the cross product by
    /// the larger join-key distinct count (System-R style), falling back
    /// to a tenth.
    pub fn estimate(&self, plan: &Plan) -> Option<usize> {
        match plan {
            Plan::Scan { relation } => self.stats.estimated_rows(relation),
            Plan::Filter { input, .. } => Some((self.estimate(input)? / 2).max(1)),
            Plan::Project { input, .. } | Plan::Distinct { input } => self.estimate(input),
            Plan::Join {
                left, right, on, ..
            } => {
                let l = self.estimate(left)?;
                let r = self.estimate(right)?;
                Some(self.join_estimate(l, r, on.first()))
            }
        }
    }

    /// Estimated size of an equi-join of `l` × `r` rows on `cond`.
    fn join_estimate(&self, l: usize, r: usize, cond: Option<&(ColumnRef, ColumnRef)>) -> usize {
        let distinct =
            cond.and_then(
                |(a, b)| match (self.column_distinct(a), self.column_distinct(b)) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (Some(x), None) | (None, Some(x)) => Some(x),
                    (None, None) => None,
                },
            );
        match distinct {
            Some(d) => (l.saturating_mul(r) / d.max(1)).max(1),
            None => (l.saturating_mul(r) / 10).max(1),
        }
    }

    /// Distinct count of a qualified column, when profiled.
    fn column_distinct(&self, column: &ColumnRef) -> Option<usize> {
        let relation = column.relation.as_deref()?;
        self.stats.distinct_values(relation, &column.to_string())
    }
}

/// Splits a maximal join tree into its units and conditions,
/// in-order (left subtree, node conditions, right subtree). Must traverse
/// identically to [`region_refs`].
fn split_region(plan: Plan, units: &mut Vec<Plan>, conds: &mut Vec<(ColumnRef, ColumnRef)>) {
    match plan {
        Plan::Join { left, right, on } => {
            split_region(*left, units, conds);
            conds.extend(on);
            split_region(*right, units, conds);
        }
        other => units.push(other),
    }
}

/// Borrowing twin of [`split_region`], for pre-flight analysis.
fn region_refs<'p>(
    plan: &'p Plan,
    units: &mut Vec<&'p Plan>,
    conds: &mut Vec<&'p (ColumnRef, ColumnRef)>,
) {
    match plan {
        Plan::Join { left, right, on } => {
            region_refs(left, units, conds);
            conds.extend(on.iter());
            region_refs(right, units, conds);
        }
        other => units.push(other),
    }
}

/// The unit index a join-condition endpoint belongs to: by relation
/// qualifier first, by schema resolution second; `None` when ambiguous.
fn unit_of(unit_relations: &[Vec<&str>], schemas: &[Schema], column: &ColumnRef) -> Option<usize> {
    if let Some(relation) = column.relation.as_deref() {
        let hits: Vec<usize> = unit_relations
            .iter()
            .enumerate()
            .filter(|(_, relations)| relations.contains(&relation))
            .map(|(i, _)| i)
            .collect();
        match hits.as_slice() {
            [index] => return Some(*index),
            [_, ..] => return None,
            [] => {}
        }
    }
    let hits: Vec<usize> = schemas
        .iter()
        .enumerate()
        .filter(|(_, schema)| schema.index_of(column).is_ok())
        .map(|(i, _)| i)
        .collect();
    match hits.as_slice() {
        [index] => Some(*index),
        _ => None,
    }
}

/// Renders `plan` as an indented one-line-per-operator tree, annotating
/// each node with its estimated (`est≈`) and, when the caller can supply
/// one, actual (`act=`) cardinality — the `explain` surface of the CLI
/// and the `/analyst/explain` route.
pub fn explain_tree(
    plan: &Plan,
    estimate: &dyn Fn(&Plan) -> Option<usize>,
    actual: &dyn Fn(&Plan) -> Option<usize>,
) -> String {
    let mut out = String::new();
    explain_node(plan, 0, estimate, actual, &mut out);
    out
}

fn explain_node(
    plan: &Plan,
    depth: usize,
    estimate: &dyn Fn(&Plan) -> Option<usize>,
    actual: &dyn Fn(&Plan) -> Option<usize>,
    out: &mut String,
) {
    let label = match plan {
        Plan::Scan { relation } => format!("scan {relation}"),
        Plan::Filter { left, right, .. } => format!("σ[{left} = {right}]"),
        Plan::Project { columns, .. } => {
            if columns.len() > 6 {
                format!("π[{} columns]", columns.len())
            } else {
                format!("π[{}]", projection_list(columns))
            }
        }
        Plan::Join { on, .. } => {
            let conditions: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
            format!("⋈[{}]", conditions.join(" ∧ "))
        }
        Plan::Distinct { .. } => "δ".to_string(),
    };
    out.push_str(&"  ".repeat(depth));
    out.push_str(&label);
    match (estimate(plan), actual(plan)) {
        (Some(e), Some(a)) => out.push_str(&format!("  est≈{e} act={a}")),
        (Some(e), None) => out.push_str(&format!("  est≈{e}")),
        (None, Some(a)) => out.push_str(&format!("  est≈? act={a}")),
        (None, None) => {}
    }
    out.push('\n');
    match plan {
        Plan::Scan { .. } => {}
        Plan::Filter { input, .. } | Plan::Project { input, .. } | Plan::Distinct { input } => {
            explain_node(input, depth + 1, estimate, actual, out)
        }
        Plan::Join { left, right, .. } => {
            explain_node(left, depth + 1, estimate, actual, out);
            explain_node(right, depth + 1, estimate, actual, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnRef;
    use std::collections::HashMap;

    struct MapStats(HashMap<String, usize>);

    impl Statistics for MapStats {
        fn estimated_rows(&self, relation: &str) -> Option<usize> {
            self.0.get(relation).copied()
        }
    }

    /// Statistics that know nothing (the old `NoStatistics`).
    struct NoStats;

    impl Statistics for NoStats {
        fn estimated_rows(&self, _relation: &str) -> Option<usize> {
            None
        }
    }

    /// Row counts plus per-column distincts.
    struct FullStats {
        rows: HashMap<String, usize>,
        distinct: HashMap<(String, String), usize>,
    }

    impl Statistics for FullStats {
        fn estimated_rows(&self, relation: &str) -> Option<usize> {
            self.rows.get(relation).copied()
        }
        fn distinct_values(&self, relation: &str, column: &str) -> Option<usize> {
            self.distinct
                .get(&(relation.to_string(), column.to_string()))
                .copied()
        }
    }

    fn resolve(name: &str) -> Result<Schema, String> {
        Ok(match name {
            "w1" => Schema::qualified("w1", ["id", "pName", "teamId"]),
            "w2" => Schema::qualified("w2", ["id", "name"]),
            other => return Err(format!("unknown {other}")),
        })
    }

    fn join_plan() -> Plan {
        Plan::scan("w1").join(
            Plan::scan("w2"),
            vec![(
                ColumnRef::qualified("w1", "teamId"),
                ColumnRef::qualified("w2", "id"),
            )],
        )
    }

    #[test]
    fn mode_parses_and_round_trips() {
        assert_eq!(OptimizeMode::parse("off"), Some(OptimizeMode::Off));
        assert_eq!(OptimizeMode::parse("Cost"), Some(OptimizeMode::Cost));
        assert_eq!(OptimizeMode::parse("heuristic"), None);
        assert_eq!(OptimizeMode::parse("fast"), None);
        assert_eq!(OptimizeMode::default(), OptimizeMode::Cost);
        assert_eq!(OptimizeMode::Cost.to_string(), "cost");
    }

    /// σ[w1.id = w1.teamId]: both columns come from w1.
    fn w1_equality() -> (ColumnRef, ColumnRef) {
        (
            ColumnRef::qualified("w1", "id"),
            ColumnRef::qualified("w1", "teamId"),
        )
    }

    #[test]
    fn off_mode_is_identity() {
        let (l, r) = w1_equality();
        let plan = join_plan().filter(l, r);
        let optimizer = Optimizer::new(&NoStats, &resolve);
        assert_eq!(
            optimizer.optimize_with(OptimizeMode::Off, plan.clone()),
            plan
        );
    }

    #[test]
    fn filter_sinks_below_join() {
        let (l, r) = w1_equality();
        let plan = join_plan().filter(l, r);
        let optimizer = Optimizer::new(&NoStats, &resolve);
        let optimized = optimizer.optimize(plan);
        let rendered = optimized.to_string();
        // The σ must appear inside the join, applied to w1.
        assert!(
            rendered.contains("σ[w1.id = w1.teamId](w1)"),
            "got {rendered}"
        );
    }

    #[test]
    fn cross_side_predicate_stays_above_join() {
        let plan = join_plan().filter(
            ColumnRef::qualified("w1", "teamId"),
            ColumnRef::qualified("w2", "id"),
        );
        let optimizer = Optimizer::new(&NoStats, &resolve);
        let rendered = optimizer.optimize(plan).to_string();
        assert!(rendered.starts_with("σ["), "got {rendered}");
    }

    #[test]
    fn join_ordering_puts_small_side_right() {
        let stats = MapStats(HashMap::from([
            ("w1".to_string(), 1_000_000),
            ("w2".to_string(), 10),
        ]));
        let optimizer = Optimizer::new(&stats, &resolve);
        // w2 is already right (small): no swap.
        let rendered = optimizer.optimize(join_plan()).to_string();
        assert!(
            rendered.contains("(w1 ⋈[w1.teamId=w2.id] w2)"),
            "got {rendered}"
        );

        // Flip statistics: now w1 is small and should move right.
        let stats = MapStats(HashMap::from([
            ("w1".to_string(), 10),
            ("w2".to_string(), 1_000_000),
        ]));
        let optimizer = Optimizer::new(&stats, &resolve);
        let rendered = optimizer.optimize(join_plan()).to_string();
        assert!(
            rendered.contains("(w2 ⋈[w2.id=w1.teamId] w1)"),
            "got {rendered}"
        );
    }

    fn resolve3(name: &str) -> Result<Schema, String> {
        Ok(match name {
            "w1" => Schema::qualified("w1", ["id", "a", "t2"]),
            "w2" => Schema::qualified("w2", ["id", "b", "t3"]),
            "w3" => Schema::qualified("w3", ["id", "c"]),
            other => return Err(format!("unknown {other}")),
        })
    }

    fn chain_plan() -> Plan {
        Plan::scan("w1")
            .join(
                Plan::scan("w2"),
                vec![(
                    ColumnRef::qualified("w1", "t2"),
                    ColumnRef::qualified("w2", "id"),
                )],
            )
            .join(
                Plan::scan("w3"),
                vec![(
                    ColumnRef::qualified("w2", "t3"),
                    ColumnRef::qualified("w3", "id"),
                )],
            )
    }

    #[test]
    fn region_reordering_starts_with_cheapest_join() {
        // w2 ⋈ w3 is far cheaper than w1 ⋈ w2, so it becomes the seed;
        // w1 then joins the (small) tree from the left. Leaf order is
        // unchanged, so no restoring projection appears.
        let stats = MapStats(HashMap::from([
            ("w1".to_string(), 1000),
            ("w2".to_string(), 500),
            ("w3".to_string(), 2),
        ]));
        let optimizer = Optimizer::new(&stats, &resolve3);
        let rendered = optimizer.optimize(chain_plan()).to_string();
        assert_eq!(
            rendered, "(w1 ⋈[w1.t2=w2.id] (w2 ⋈[w2.t3=w3.id] w3))",
            "expected right-deep rebuild"
        );
    }

    #[test]
    fn region_reordering_restores_column_order_with_a_projection() {
        // w1 is tiny so it should end up on a build side, moving it out of
        // leaf position 0 — which must trigger the restoring projection.
        let stats = MapStats(HashMap::from([
            ("w1".to_string(), 2),
            ("w2".to_string(), 1000),
            ("w3".to_string(), 500),
        ]));
        let optimizer = Optimizer::new(&stats, &resolve3);
        let optimized = optimizer.optimize(chain_plan());
        let rendered = optimized.to_string();
        assert!(
            rendered.starts_with("π[w1.id, w1.a, w1.t2, w2.id, w2.b, w2.t3, w3.id, w3.c]("),
            "got {rendered}"
        );
        assert!(
            rendered.contains("(w2 ⋈[w2.id=w1.t2] w1)"),
            "got {rendered}"
        );
        // The restored schema matches the unoptimized plan's schema.
        let original = chain_plan().schema_with(&resolve3).unwrap();
        assert_eq!(optimized.schema_with(&resolve3).unwrap(), original);
    }

    #[test]
    fn distinct_aware_join_estimates_pick_the_selective_key() {
        let stats = FullStats {
            rows: HashMap::from([("w1".to_string(), 1000), ("w2".to_string(), 1000)]),
            distinct: HashMap::from([
                (("w1".to_string(), "w1.teamId".to_string()), 10),
                (("w2".to_string(), "w2.id".to_string()), 1000),
            ]),
        };
        let optimizer = Optimizer::new(&stats, &resolve);
        // 1000 × 1000 / max(10, 1000) = 1000, not the /10 fallback 100000.
        assert_eq!(optimizer.estimate(&join_plan()), Some(1000));
    }

    #[test]
    fn projection_pruning_narrows_scans() {
        let plan = join_plan().project_named(&[("w2.name", "team")]);
        let optimizer = Optimizer::new(&NoStats, &resolve);
        let rendered = optimizer.optimize(plan).to_string();
        // w1 keeps only its join key; w2 keeps the key and the projected
        // name (all other columns), so only w1 gets a pruning π.
        assert!(rendered.contains("π[w1.teamId](w1)"), "got {rendered}");
        assert!(
            !rendered.contains("π[w2.id, w2.name](w2)"),
            "got {rendered}"
        );
    }

    #[test]
    fn pruning_stops_at_distinct() {
        // δ below the projection consumes full rows: pruning must not
        // narrow the scan, or duplicate elimination would change.
        let plan = Plan::scan("w1")
            .distinct()
            .project_named(&[("w1.pName", "name")]);
        let optimizer = Optimizer::new(&NoStats, &resolve);
        let rendered = optimizer.optimize(plan).to_string();
        assert_eq!(rendered, "π[w1.pName→name](δ(w1))");
    }

    /// A column equality keeps half its input, at least one row, whatever
    /// the columns' statistics say.
    #[test]
    fn a_column_equality_keeps_half_its_input() {
        let (l, r) = w1_equality();
        let stats = FullStats {
            rows: HashMap::from([("w1".to_string(), 101), ("w2".to_string(), 1)]),
            distinct: HashMap::from([(("w1".to_string(), "w1.id".to_string()), 101)]),
        };
        let optimizer = Optimizer::new(&stats, &resolve);
        assert_eq!(
            optimizer.estimate(&Plan::scan("w1").filter(l.clone(), r.clone())),
            Some(50)
        );
        assert_eq!(optimizer.estimate(&Plan::scan("w2").filter(l, r)), Some(1));
    }

    #[test]
    fn explain_tree_annotates_cardinalities() {
        let stats = MapStats(HashMap::from([
            ("w1".to_string(), 100),
            ("w2".to_string(), 10),
        ]));
        let optimizer = Optimizer::new(&stats, &resolve);
        let plan = join_plan();
        let text = explain_tree(&plan, &|p| optimizer.estimate(p), &|_| None);
        assert!(text.contains("⋈[w1.teamId=w2.id]  est≈100"), "got {text}");
        assert!(text.contains("\n  scan w1  est≈100\n"), "got {text}");
        assert!(text.contains("\n  scan w2  est≈10\n"), "got {text}");
        let with_actuals = explain_tree(&plan, &|p| optimizer.estimate(p), &|_| Some(7));
        assert!(with_actuals.contains("act=7"), "got {with_actuals}");
    }

    #[test]
    fn optimization_preserves_results() {
        use crate::executor::{Executor, MemoryCatalog};
        use crate::table::Table;
        use crate::value::Value;

        let mut catalog = MemoryCatalog::new();
        catalog.register(
            "w1",
            Table::new(
                Schema::qualified("w1", ["id", "pName", "teamId"]),
                vec![
                    vec![Value::Int(25), Value::str("Messi"), Value::Int(25)],
                    vec![Value::Int(2), Value::str("Lewandowski"), Value::Int(27)],
                ],
            )
            .unwrap(),
        );
        catalog.register(
            "w2",
            Table::new(
                Schema::qualified("w2", ["id", "name"]),
                vec![
                    vec![Value::Int(25), Value::str("FC Barcelona")],
                    vec![Value::Int(27), Value::str("Bayern Munich")],
                ],
            )
            .unwrap(),
        );
        let (l, r) = w1_equality();
        let plan = join_plan()
            .filter(l, r)
            .project_named(&[("w2.name", "team")]);
        let executor = Executor::new(&catalog);
        let baseline = executor.run(&plan).unwrap().sorted();
        // Both modes, with and without statistics, agree bytewise.
        for stats in [
            &MapStats(HashMap::from([
                ("w1".to_string(), 2),
                ("w2".to_string(), 2),
            ])) as &dyn Statistics,
            &NoStats as &dyn Statistics,
        ] {
            let optimizer = Optimizer::new(stats, &resolve);
            for mode in [OptimizeMode::Off, OptimizeMode::Cost] {
                let optimized = optimizer.optimize_with(mode, plan.clone());
                let improved = executor.run(&optimized).unwrap().sorted();
                assert_eq!(baseline, improved, "mode {mode}");
            }
        }
        assert_eq!(baseline.rows()[0][0], Value::str("FC Barcelona"));
    }
}
