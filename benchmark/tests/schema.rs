//! Schema smoke test: `BENCHMARK.json`, the harness's metric table and the
//! harness's actual output agree, on quick runs of every workload.

use std::collections::BTreeMap;
use std::process::Command;

use mdm_benchmark::metrics::{MetricDef, END_TO_END, EXACT, PER_LAYER};
use mdm_benchmark::scenario::Workload;
use mdm_dataform::{json, Value};

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON")
}

fn text<'v>(value: &'v Value, key: &str) -> &'v str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string '{key}'"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// One quick run; `(metric lines as name → (value, unit), result object)`.
fn quick(workload: Workload, trace: &str) -> (BTreeMap<String, (String, String)>, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_mdm-benchmark"))
        .args([
            "run",
            "--workload",
            workload.name(),
            "--seed",
            "42",
            "--trace",
            trace,
            "--quick",
        ])
        .output()
        .expect("the harness runs");
    let stdout = String::from_utf8(output.stdout).expect("output is UTF-8");
    assert!(
        output.status.success(),
        "{} --trace {trace} failed:\n{stdout}",
        workload.name()
    );
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", under, name, value, unit, ..] = words.as_slice() {
            assert_eq!(*under, workload.name(), "{line}");
            let again = metrics.insert(name.to_string(), (value.to_string(), unit.to_string()));
            assert!(again.is_none(), "{name} printed twice under {under}");
        }
    }
    let last = stdout.lines().last().expect("the run printed something");
    (
        metrics,
        json::parse(last).expect("the last line is the result object"),
    )
}

fn check_declared(section: &str, defs: &[MetricDef]) {
    let declared = declared();
    let listed = declared
        .get(section)
        .and_then(Value::as_array)
        .expect("section is a list");
    let names: Vec<&str> = listed.iter().map(|m| text(m, "name")).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "{section} names and order");
    for (metric, def) in listed.iter().zip(defs) {
        assert!(valid_name(def.name), "{}", def.name);
        assert_eq!(text(metric, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(metric, "better"), def.better, "{}", def.name);
    }
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    check_declared("end_to_end", END_TO_END);
    check_declared("per_layer", PER_LAYER);
    let declared = declared();
    let workloads: Vec<&str> = declared
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads is a list")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    for metric in declared
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap()
    {
        let bound = metric
            .get("bound")
            .and_then(Value::as_number)
            .expect("bound")
            .as_f64();
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            text(metric, "name")
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    for name in EXACT {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "{name} is not a per-layer metric"
        );
    }
}

/// Sequential on purpose: quick runs sharing two cores would only slow
/// each other down.
#[test]
fn quick_runs_print_every_declared_metric_once() {
    for workload in Workload::ALL {
        for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let (metrics, result) = quick(workload, trace);
            let reported = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object");
            let names: Vec<&str> = reported.keys().map(String::as_str).collect();
            let mut expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
            expected.sort_unstable();
            assert_eq!(names, expected, "{} --trace {trace}", workload.name());
            for def in defs {
                let (_, unit) = metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{} not printed", def.name));
                assert_eq!(unit, def.unit, "{}", def.name);
                assert_eq!(text(&reported[def.name], "unit"), def.unit, "{}", def.name);
                assert!(
                    reported[def.name]
                        .get("value")
                        .and_then(Value::as_number)
                        .is_some(),
                    "{}",
                    def.name
                );
            }
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(
                result
                    .get("failed")
                    .and_then(Value::as_number)
                    .and_then(|n| n.as_i64()),
                Some(0)
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_number)
                    .and_then(|n| n.as_i64())
                    >= Some(1)
            );
            assert_eq!(metrics["failed_share"].0, "0");
            if trace == "0" {
                // Only churn's window makes releases.
                assert_eq!(
                    metrics.contains_key("release_visible_p50_ms"),
                    workload == Workload::EvolutionChurn,
                    "{}",
                    workload.name()
                );
            } else {
                let (again, _) = quick(workload, trace);
                for name in EXACT {
                    assert_eq!(
                        metrics[*name],
                        again[*name],
                        "{name} on {}",
                        workload.name()
                    );
                }
            }
        }
    }
}
