//! `compare FIRST SECOND`: two saved outputs of the same code, held to the
//! bounds `BENCHMARK.json` declares. Used by `repeat.sh`.

use std::collections::BTreeMap;

use mdm_dataform::{json, Value};

use crate::metrics::EXACT;
use crate::sys::package_dir;

/// `(workload, metric) → value` from the `metric` lines of a saved output.
fn read(path: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values = BTreeMap::new();
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", workload, name, value, ..] = words.as_slice() {
            let value = value
                .parse::<f64>()
                .map_err(|_| format!("{path}: bad value in '{line}'"))?;
            values.insert((workload.to_string(), name.to_string()), value);
        }
    }
    Ok(values)
}

pub fn run(first: &str, second: &str) -> Result<bool, String> {
    let declared = std::fs::read_to_string(package_dir().join("../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = json::parse(&declared).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds: Vec<(String, f64)> = declared
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|metric| {
            let name = metric.get("name")?.as_str()?.to_string();
            let bound = metric.get("bound")?.as_number()?.as_f64();
            Some((name, bound))
        })
        .collect();
    let (first, second) = (read(first)?, read(second)?);
    let mut agree = true;
    println!(
        "{:<16} {:<24} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((workload, name), a) in &first {
        let Some(b) = second.get(&(workload.clone(), name.clone())) else {
            println!("{workload:<16} {name:<24} missing from the second output");
            agree = false;
            continue;
        };
        if let Some((_, bound)) = bounds.iter().find(|(n, _)| n == name) {
            let diff = (b - a) / a;
            let breach = diff.abs() > *bound;
            println!(
                "{workload:<16} {name:<24} {a:>12.4} {b:>12.4} {:>+7.1}% {:>5.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            agree &= !breach;
        } else if (EXACT.contains(&name.as_str()) || name == "failed_share") && a != b {
            println!("{workload:<16} {name:<24} {a:>12} {b:>12}  NOT IDENTICAL");
            agree = false;
        }
    }
    println!(
        "{}",
        if agree {
            "every end-to-end metric within its bound; every exact count identical"
        } else {
            "the two outputs disagree"
        }
    );
    Ok(agree)
}
