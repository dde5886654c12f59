//! The answer oracle. The served bodies of the reference pass are compared
//! row for row with a cold in-process `Mdm::query` on an identically built
//! system that received the same releases; `serve_hot`'s rows are also
//! looked up in the paper's Table 1, and a churn tail walk must contain the
//! values of the version just released.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};

use mdm_core::Mdm;
use mdm_dataform::{json, Number, Value as Json};
use mdm_relational::{Table, Value};

use crate::client::Reference;
use crate::scenario::{Op, Release, Scenario, Workload};

/// The golden rendering of the Figure 8 answer after the Players v2
/// release. `serve_hot` serves the v1 system, whose answer is the subset of
/// it that v1 sources provide; the traced run then makes that release.
const TABLE_1: &str = include_str!("../../artifacts/table1_query_output.txt");

fn same_cell(served: &Json, expected: &Value) -> bool {
    match (served, expected) {
        (Json::Null, Value::Null) => true,
        (Json::Bool(a), Value::Bool(b)) => a == b,
        (Json::Number(Number::Int(a)), Value::Int(b)) => a == b,
        (Json::Number(a), Value::Float(b)) => a.as_f64().to_bits() == b.to_bits(),
        (Json::String(a), Value::Str(b)) => a == b.as_str(),
        _ => false,
    }
}

/// A served `/analyst/query` body against the table it should render.
pub fn check_answer(body: &[u8], expected: &Table) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let served = json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let complete = served
        .get("completeness")
        .and_then(|c| c.get("complete"))
        .and_then(Json::as_bool);
    if complete != Some(true) {
        return Err("completeness.complete is not true".to_string());
    }
    let rows = served
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("no rows array")?;
    let row_count = served
        .get("row_count")
        .and_then(Json::as_number)
        .and_then(Number::as_i64);
    if row_count != Some(expected.len() as i64) || rows.len() != expected.len() {
        return Err(format!(
            "served {} rows (row_count {row_count:?}), the oracle has {}",
            rows.len(),
            expected.len()
        ));
    }
    for (index, (served_row, expected_row)) in rows.iter().zip(expected.rows()).enumerate() {
        let cells = served_row.as_array().ok_or("row is not an array")?;
        if cells.len() != expected_row.len()
            || !cells
                .iter()
                .zip(expected_row.iter())
                .all(|(s, e)| same_cell(s, e))
        {
            return Err(format!(
                "row {index}: served {}, the oracle has {expected_row:?}",
                json::to_string(served_row)
            ));
        }
    }
    Ok(served)
}

/// Every served `(team, player)` row is a line of Table 1; once Players v2
/// is released the answer is Table 1 exactly.
fn check_table_1(served: &Json, exactly: bool) -> Result<(), String> {
    let golden: BTreeSet<(String, String)> = TABLE_1
        .lines()
        .skip(2)
        .filter_map(|line| line.split_once('|'))
        .map(|(team, player)| (team.trim().to_string(), player.trim().to_string()))
        .collect();
    let rows = served.get("rows").and_then(Json::as_array).unwrap_or(&[]);
    if rows.is_empty() || (exactly && rows.len() != golden.len()) {
        return Err(format!(
            "{} rows served, Table 1 has {}",
            rows.len(),
            golden.len()
        ));
    }
    for row in rows {
        let cell = |i: usize| {
            row.at(i)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        if !golden.contains(&(cell(0), cell(1))) {
            return Err(format!("{} is not a row of Table 1", json::to_string(row)));
        }
    }
    Ok(())
}

/// The tail walk after `release` shows every non-null value the new
/// version carries for the attribute the walk projects.
fn check_visible(served: &Json, release: &Release, attribute: usize) -> Result<(), String> {
    let rows = served.get("rows").and_then(Json::as_array).unwrap_or(&[]);
    let shown: Vec<&Json> = rows.iter().filter_map(|row| row.at(0)).collect();
    let wrapper = release.wrapper();
    let released = wrapper.rows().map_err(|e| e.to_string())?;
    for row in &released {
        let value = &row[attribute];
        if *value != Value::Null && !shown.iter().any(|cell| same_cell(cell, value)) {
            return Err(format!(
                "{value:?} of {} v{} is missing from the tail walk's answer",
                wrapper.name(),
                wrapper.version()
            ));
        }
    }
    Ok(())
}

/// Replays `script` on a fresh in-process system and checks the reference
/// body of every query step. Expected tables are recomputed (cold: full
/// rewrite + execution) after each release and reused until the next.
pub fn verify(scenario: &Scenario, script: &[Op], reference: &Reference) -> Result<(), String> {
    let mut mdm: Mdm = scenario.build_mdm();
    let mut expected: HashMap<usize, Table> = HashMap::new();
    let mut verified: HashSet<(usize, u64)> = HashSet::new();
    let mut last_release: Option<&Release> = None;
    for (index, op) in script.iter().enumerate() {
        match *op {
            Op::Release(release) => {
                let release = &scenario.releases[release];
                for op in release.ops.iter().cloned() {
                    op.apply(&mut mdm)
                        .map_err(|e| format!("oracle release failed: {e}"))?;
                }
                expected.clear();
                verified.clear();
                last_release = Some(release);
            }
            Op::Query(walk) => {
                let digest = reference.digests[index];
                let fresh_release = last_release.take();
                if verified.contains(&(walk, digest)) {
                    continue;
                }
                let body = reference
                    .bodies
                    .get(&digest)
                    .ok_or_else(|| format!("step {index} has no correct reference answer"))?;
                let table = match expected.entry(walk) {
                    Entry::Occupied(known) => known.into_mut(),
                    Entry::Vacant(slot) => {
                        let answer = mdm
                            .query(&scenario.walks[walk])
                            .map_err(|e| format!("oracle query failed: {e}"))?;
                        slot.insert(answer.table)
                    }
                };
                let served = check_answer(body, table).map_err(|e| format!("step {index}: {e}"))?;
                if scenario.workload == Workload::ServeHot {
                    check_table_1(&served, fresh_release.is_some())?;
                }
                if let Some((release, attribute)) =
                    fresh_release.and_then(|r| r.visible_attribute.map(|a| (r, a)))
                {
                    check_visible(&served, release, attribute)
                        .map_err(|e| format!("step {index}: {e}"))?;
                }
                verified.insert((walk, digest));
            }
        }
    }
    Ok(())
}
