//! The logical relational algebra.
//!
//! The query-rewriting algorithm of `mdm-core` produces a union of
//! conjunctive queries over wrapper relations; each conjunctive query is a
//! [`Plan`], and the union is the answer's, not the algebra's. `Display`
//! renders a plan in textbook notation — `π`, `σ`, `⋈`, `δ` — from which
//! `mdm-core` writes the "generated relational algebra expression over the
//! wrappers" the MDM frontend shows next to a query (paper Figure 8).

use std::fmt;

use crate::schema::{ColumnRef, Schema};

/// A logical plan node.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// A base relation (a wrapper, in MDM's usage).
    Scan { relation: String },
    /// σ — keep rows whose two columns are equal: both non-NULL and equal
    /// under `Value`'s coercing equality. The rewriting emits one per join
    /// condition that closes a cycle over atoms already joined.
    Filter {
        input: Box<Plan>,
        left: ColumnRef,
        right: ColumnRef,
    },
    /// π — select input columns, each renamed to an output name.
    Project {
        input: Box<Plan>,
        columns: Vec<(ColumnRef, ColumnRef)>,
    },
    /// ⋈ — inner equi-join on pairs of (left column, right column); the
    /// only join MDM's rewriting emits (joins are restricted to identifier
    /// features, §2.3).
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<(ColumnRef, ColumnRef)>,
    },
    /// δ — duplicate elimination.
    Distinct { input: Box<Plan> },
}

impl Plan {
    /// Scan of a named relation.
    pub fn scan(relation: impl Into<String>) -> Plan {
        Plan::Scan {
            relation: relation.into(),
        }
    }

    /// σ builder: `left = right`.
    pub fn filter(self, left: ColumnRef, right: ColumnRef) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            left,
            right,
        }
    }

    /// π builder from `(source column, output name)` pairs.
    pub fn project(self, columns: Vec<(ColumnRef, ColumnRef)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            columns,
        }
    }

    /// π builder from `rel.name` (or bare `name`) source notation, renaming
    /// each column to its bare output name.
    pub fn project_named(self, pairs: &[(&str, &str)]) -> Plan {
        self.project(
            pairs
                .iter()
                .map(|(source, output)| (ColumnRef::parse(source), ColumnRef::bare(*output)))
                .collect(),
        )
    }

    /// Inner equi-join builder.
    pub fn join(self, right: Plan, on: Vec<(ColumnRef, ColumnRef)>) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on,
        }
    }

    /// δ builder.
    pub fn distinct(self) -> Plan {
        Plan::Distinct {
            input: Box::new(self),
        }
    }

    /// The relations scanned by this plan, in first-use order.
    pub fn scanned_relations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_scans(&mut out);
        out
    }

    fn collect_scans<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Plan::Scan { relation } => {
                if !out.contains(&relation.as_str()) {
                    out.push(relation);
                }
            }
            Plan::Filter { input, .. } | Plan::Project { input, .. } | Plan::Distinct { input } => {
                input.collect_scans(out)
            }
            Plan::Join { left, right, .. } => {
                left.collect_scans(out);
                right.collect_scans(out);
            }
        }
    }

    /// Derives the output schema given a function resolving base-relation
    /// schemas (usually [`Catalog::relation_schema`](crate::Catalog)).
    pub fn schema_with(
        &self,
        resolve: &dyn Fn(&str) -> Result<Schema, String>,
    ) -> Result<Schema, String> {
        match self {
            Plan::Scan { relation } => resolve(relation),
            Plan::Filter { input, .. } | Plan::Distinct { input } => input.schema_with(resolve),
            Plan::Project { columns, .. } => Ok(Schema::new(
                columns.iter().map(|(_, name)| name.clone()).collect(),
            )),
            Plan::Join { left, right, .. } => Ok(left
                .schema_with(resolve)?
                .concat(&right.schema_with(resolve)?)),
        }
    }

    /// Number of operator nodes (used by benches to report plan sizes).
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } => 0,
            Plan::Filter { input, .. } | Plan::Project { input, .. } | Plan::Distinct { input } => {
                input.node_count()
            }
            Plan::Join { left, right, .. } => left.node_count() + right.node_count(),
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Scan { relation } => write!(f, "{relation}"),
            Plan::Filter { input, left, right } => write!(f, "σ[{left} = {right}]({input})"),
            Plan::Project { input, columns } => {
                write!(f, "π[{}]({input})", projection_list(columns))
            }
            Plan::Join { left, right, on } => {
                let conditions: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                write!(f, "({left} ⋈[{}] {right})", conditions.join(" ∧ "))
            }
            Plan::Distinct { input } => write!(f, "δ({input})"),
        }
    }
}

/// A π's column list as `Display` and `explain` print it: `src→out`, or
/// just `src` when the column keeps its name.
pub(crate) fn projection_list(columns: &[(ColumnRef, ColumnRef)]) -> String {
    let cols: Vec<String> = columns
        .iter()
        .map(|(source, name)| {
            let rendered = source.to_string();
            if rendered == name.to_string() {
                rendered
            } else {
                format!("{rendered}→{name}")
            }
        })
        .collect();
    cols.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 8 plan: names of players and their teams.
    fn figure8_plan() -> Plan {
        Plan::scan("w1")
            .join(
                Plan::scan("w2"),
                vec![(
                    ColumnRef::qualified("w1", "teamId"),
                    ColumnRef::qualified("w2", "id"),
                )],
            )
            .project_named(&[("w2.name", "ex:teamName"), ("w1.pName", "ex:playerName")])
    }

    #[test]
    fn display_is_figure8_style() {
        let rendered = figure8_plan().to_string();
        assert_eq!(
            rendered,
            "π[w2.name→ex:teamName, w1.pName→ex:playerName]((w1 ⋈[w1.teamId=w2.id] w2))"
        );
    }

    #[test]
    fn scanned_relations_in_order() {
        assert_eq!(figure8_plan().scanned_relations(), vec!["w1", "w2"]);
    }

    #[test]
    fn schema_of_projection() {
        let resolve = |name: &str| -> Result<Schema, String> {
            Ok(match name {
                "w1" => Schema::qualified("w1", ["id", "pName", "teamId"]),
                "w2" => Schema::qualified("w2", ["id", "name"]),
                other => return Err(format!("unknown {other}")),
            })
        };
        let schema = figure8_plan().schema_with(&resolve).unwrap();
        assert_eq!(schema.join_names(", "), "ex:teamName, ex:playerName");
    }

    #[test]
    fn schema_of_join_concatenates() {
        let resolve =
            |name: &str| -> Result<Schema, String> { Ok(Schema::qualified(name, ["id"])) };
        let plan = Plan::scan("w1").join(
            Plan::scan("w2"),
            vec![(
                ColumnRef::qualified("w1", "id"),
                ColumnRef::qualified("w2", "id"),
            )],
        );
        assert_eq!(plan.schema_with(&resolve).unwrap().len(), 2);
    }

    #[test]
    fn node_count() {
        assert_eq!(figure8_plan().node_count(), 4); // scan, scan, join, project
    }

    #[test]
    fn filter_renders_its_column_equality() {
        let p = Plan::scan("w1").filter(
            ColumnRef::qualified("w1", "id"),
            ColumnRef::qualified("w1", "teamId"),
        );
        assert_eq!(p.to_string(), "σ[w1.id = w1.teamId](w1)");
    }

    #[test]
    fn distinct_renders() {
        let p = Plan::scan("w").distinct();
        assert_eq!(p.to_string(), "δ(w)");
    }
}
