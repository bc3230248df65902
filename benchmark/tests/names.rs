//! No drift between declaration and output: what the benchmark emits
//! under `--quick` must carry exactly the workload names, metric names
//! and units that `BENCHMARK.json` declares.

use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Run the benchmark with `args`; its last stdout line as JSON.
fn run(args: &[&str]) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_scanshare-layerbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("last stdout line is JSON")
}

/// `name -> unit` of a declared metric list.
fn declared(decl: &Value, section: &str) -> BTreeMap<String, String> {
    decl.get(section)
        .and_then(Value::as_array)
        .expect("declared section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// `name -> unit` of an emitted result object; checks its shape.
fn emitted(result: &Value) -> BTreeMap<String, String> {
    let keys: Vec<&str> = result
        .as_object()
        .expect("result object")
        .iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("a value");
            assert!(value.is_finite(), "{name} is not finite");
            let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn emitted_names_equal_declared_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let decl: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let end_to_end = declared(&decl, "end_to_end");
    let per_layer = declared(&decl, "per_layer");
    let workloads: Vec<&str> = decl
        .get("workloads")
        .and_then(Value::as_array)
        .expect("declared workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("a name"))
        .collect();

    // The whole benchmark: every workload, both halves.
    let all = run(&["--quick"]);
    let by_name = all
        .get("workloads")
        .and_then(Value::as_object)
        .expect("one result per workload");
    let emitted_workloads: Vec<&str> = by_name.iter().map(|(k, _)| k).collect();
    assert_eq!(emitted_workloads, workloads);
    let mut both = end_to_end.clone();
    both.extend(per_layer.clone());
    for (workload, result) in by_name.iter() {
        assert_eq!(emitted(result), both, "workload {workload}");
    }

    // As the driver calls it: one workload, one half.
    for (flag, want) in [("0", &end_to_end), ("1", &per_layer)] {
        let one = run(&["--quick", "--workload", workloads[0], "--trace", flag]);
        assert_eq!(&emitted(&one), want, "--trace {flag}");
    }
}
