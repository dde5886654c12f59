//! Flattening document trees into 1NF rows.
//!
//! Paper §2.2: *"We work under the assumption that wrappers provide a flat
//! structure in first normal form"*. REST payloads are trees, so each wrapper
//! contains a flattening step. The rules implemented here:
//!
//! * a scalar document is one row with one column (named by
//!   [`FlattenOptions::scalar_column`]);
//! * an object contributes one column per scalar field, with nested objects
//!   flattened using separator-joined column names (`team_name`);
//! * an array of objects (the standard REST list response) produces one row
//!   per element;
//! * a nested array *unnests*: the cartesian product with its parent row,
//!   which is the 1NF interpretation of repeated groups.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::value::{Scalar, Value};

/// Options controlling flattening.
#[derive(Clone, Debug)]
pub struct FlattenOptions {
    /// Separator between nested object keys in generated column names.
    pub separator: String,
    /// Column name used when a document (or array element) is a bare scalar.
    pub scalar_column: String,
}

impl Default for FlattenOptions {
    fn default() -> Self {
        FlattenOptions {
            separator: "_".to_string(),
            scalar_column: "value".to_string(),
        }
    }
}

/// A flat row: column name → scalar text (empty string encodes null).
/// Column names are `Arc<str>` because every row of a payload repeats the
/// same handful of names. `Arc<str>: Borrow<str>`, so `row["id"]` lookups
/// still work.
pub type Row = BTreeMap<Arc<str>, String>;

/// One cell of a row as [`flatten`] hands it out: the column name (borrowed
/// from the document where it is a top-level key) and the scalar.
pub type Cell<'a> = (Cow<'a, str>, Scalar<'a>);

/// Flattens a document into 1NF rows, collected as [`Row`]s.
pub fn flatten_rows(value: &Value, options: &FlattenOptions) -> Vec<Row> {
    let mut rows = Vec::new();
    flatten(value, options, &mut |cells: &[Cell<'_>]| {
        let mut row = Row::new();
        for (column, cell) in cells {
            row.insert(Arc::from(column.as_ref()), cell.to_text());
        }
        rows.push(row);
    });
    rows
}

/// Flattens a document into 1NF rows, handing each row to `sink` as soon as
/// it is made: the one flattening implementation ([`flatten_rows`] is its
/// collecting sink).
///
/// A row lists its cells in assignment order, and a column may appear in
/// it more than once — nested names can collide with flat ones (`a_b`
/// next to `a: {b}`); the *later* cell is the column's value, as a map
/// insert keeps it. Object keys are visited in sorted order.
pub fn flatten<'a>(
    value: &'a Value,
    options: &'a FlattenOptions,
    sink: &mut impl FnMut(&[Cell<'a>]),
) {
    match value {
        Value::Array(items) => {
            for item in items {
                flatten(item, options, sink);
            }
        }
        Value::Object(_) => {
            for row in object_rows(value, &Cow::Borrowed(""), options) {
                sink(&row);
            }
        }
        scalar => sink(&[(
            Cow::Borrowed(options.scalar_column.as_str()),
            Scalar::of(scalar).unwrap_or(Scalar::Null),
        )]),
    }
}

/// Flattens one object into one-or-more rows (more when arrays unnest).
fn object_rows<'a>(
    value: &'a Value,
    prefix: &Cow<'a, str>,
    options: &'a FlattenOptions,
) -> Vec<Vec<Cell<'a>>> {
    let Some(map) = value.as_object() else {
        // Scalar under a prefix: single column. An array here (an array
        // element that is itself an array) is no scalar and reads as null.
        let column = if prefix.is_empty() {
            Cow::Borrowed(options.scalar_column.as_str())
        } else {
            prefix.clone()
        };
        return vec![vec![(column, Scalar::of(value).unwrap_or(Scalar::Null))]];
    };

    // Start from a single row and expand multiplicatively on arrays.
    let mut rows: Vec<Vec<Cell<'a>>> = vec![Vec::with_capacity(map.len())];
    for (key, field) in map {
        let column: Cow<'a, str> = if prefix.is_empty() {
            Cow::Borrowed(key.as_str())
        } else {
            Cow::Owned(format!("{prefix}{}{key}", options.separator))
        };
        match field {
            // Empty array: keep parent rows, no columns added.
            Value::Array(items) if items.is_empty() => {}
            // Unnest: each element's rows pair with each existing row,
            // element by element.
            Value::Array(items) => {
                let mut expanded = Vec::new();
                for item in items {
                    expanded.extend(product(&rows, &object_rows(item, &column, options)));
                }
                rows = expanded;
            }
            Value::Object(_) => {
                rows = product(&rows, &object_rows(field, &column, options)).collect();
            }
            scalar => {
                let cell = Scalar::of(scalar).unwrap_or(Scalar::Null);
                for row in &mut rows {
                    row.push((column.clone(), cell));
                }
            }
        }
    }
    rows
}

/// Every row followed by every sub-row, row-major; a sub-row's cells come
/// later, so they win.
fn product<'r, 'a>(
    rows: &'r [Vec<Cell<'a>>],
    sub_rows: &'r [Vec<Cell<'a>>],
) -> impl Iterator<Item = Vec<Cell<'a>>> + 'r {
    rows.iter().flat_map(move |row| {
        sub_rows.iter().map(move |sub| {
            let mut merged = Vec::with_capacity(row.len() + sub.len());
            merged.extend_from_slice(row);
            merged.extend_from_slice(sub);
            merged
        })
    })
}

/// Extracts the union of column names across rows, sorted — the inferred 1NF
/// schema MDM's *schema extraction* step derives from a wrapper's payload.
pub fn infer_columns(rows: &[Row]) -> Vec<String> {
    let mut columns: Vec<String> = rows
        .iter()
        .flat_map(|row| row.keys().map(|k| k.to_string()))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    columns.sort();
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn flatten_json(doc: &str) -> Vec<Row> {
        flatten_rows(&json::parse(doc).unwrap(), &FlattenOptions::default())
    }

    #[test]
    fn flat_object_is_one_row() {
        let rows = flatten_json(r#"{"id":6176,"name":"Lionel Messi","height":170.18}"#);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["id"], "6176");
        assert_eq!(rows[0]["name"], "Lionel Messi");
        assert_eq!(rows[0]["height"], "170.18");
    }

    #[test]
    fn array_of_objects_is_one_row_each() {
        let rows = flatten_json(r#"[{"id":1},{"id":2},{"id":3}]"#);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2]["id"], "3");
    }

    #[test]
    fn nested_objects_prefix_columns() {
        let rows = flatten_json(r#"{"player":{"name":"Messi","team":{"id":25}}}"#);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["player_name"], "Messi");
        assert_eq!(rows[0]["player_team_id"], "25");
    }

    #[test]
    fn nested_array_unnests_cartesian() {
        let rows = flatten_json(r#"{"team":"FCB","players":[{"n":"Messi"},{"n":"Iniesta"}]}"#);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r["team"] == "FCB"));
        let names: Vec<_> = rows.iter().map(|r| r["players_n"].clone()).collect();
        assert_eq!(names, vec!["Messi", "Iniesta"]);
    }

    #[test]
    fn two_arrays_multiply() {
        let rows = flatten_json(r#"{"a":[{"x":1},{"x":2}],"b":[{"y":3},{"y":4}]}"#);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn empty_array_keeps_parent_row() {
        let rows = flatten_json(r#"{"team":"FCB","players":[]}"#);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["team"], "FCB");
        assert!(!rows[0].contains_key("players"));
    }

    #[test]
    fn null_becomes_empty_string() {
        let rows = flatten_json(r#"{"a":null,"b":1}"#);
        assert_eq!(rows[0]["a"], "");
    }

    #[test]
    fn bare_scalar_document() {
        let rows = flatten_json("42");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["value"], "42");
    }

    #[test]
    fn array_of_scalars() {
        let rows = flatten_json("[1,2]");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["value"], "1");
    }

    #[test]
    fn custom_separator() {
        let options = FlattenOptions {
            separator: ".".to_string(),
            ..FlattenOptions::default()
        };
        let value = json::parse(r#"{"a":{"b":1}}"#).unwrap();
        let rows = flatten_rows(&value, &options);
        assert_eq!(rows[0]["a.b"], "1");
    }

    #[test]
    fn infer_columns_unions_and_sorts() {
        let rows = flatten_json(r#"[{"b":1},{"a":2,"b":3}]"#);
        assert_eq!(infer_columns(&rows), vec!["a", "b"]);
    }

    #[test]
    fn xml_payload_flattens_after_to_value() {
        let team = crate::xml::parse(
            "<team><id>25</id><name>FC Barcelona</name><shortName>FCB</shortName></team>",
        )
        .unwrap();
        let rows = flatten_rows(&crate::xml::to_value(&team), &FlattenOptions::default());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0]["id"], "25");
        assert_eq!(rows[0]["name"], "FC Barcelona");
        assert_eq!(rows[0]["shortName"], "FCB");
    }
}
