//! `--compare A.json B.json`: the repeatability check behind
//! `check_repeat.sh`. Compares two result files of one commit with the
//! bounds declared in `BENCHMARK.json`: a host-clock end-to-end metric
//! may be worse in B than in A by at most its bound, and everything on
//! the virtual clock, and every count, must be identical.

use serde::Value;

/// Host-clock metrics vary from run to run; every other metric must
/// repeat exactly.
fn host_clock(name: &str) -> bool {
    matches!(
        name,
        "setup_s"
            | "wall_s"
            | "sim_pages_per_wall_s"
            | "peak_rss_mb"
            | "tpch.gen.generate_s"
            | "engine.workload.wall_raw_s"
    ) || name.contains("_ns")
        || name.ends_with("_ms")
        || name.ends_with("_share")
        || name.starts_with("trace.")
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(workload name, its metrics object)` of a result file in either
/// shape the benchmark writes.
fn workloads(v: &Value) -> Vec<(String, &Value)> {
    match v.get("workloads").and_then(Value::as_object) {
        Some(map) => map
            .iter()
            .filter_map(|(k, w)| Some((k.to_string(), w.get("metrics")?)))
            .collect(),
        None => v
            .get("metrics")
            .map(|m| ("(one workload)".to_string(), m))
            .into_iter()
            .collect(),
    }
}

fn value_of(metrics: &Value, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

/// Exit code: 0 when B repeats A within the declared bounds, 1 when it
/// does not, 2 when a file is unreadable.
pub fn run(a: &str, b: &str) -> i32 {
    let decl_path = crate::bench_dir().join("../BENCHMARK.json");
    let loaded = load(a).and_then(|a| Ok((a, load(b)?, load(&decl_path.to_string_lossy())?)));
    let (a, b, decl) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // name -> (lower is better, bound) of the declared end-to-end metrics.
    let bounded: Vec<(String, bool, f64)> = decl
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();

    let mut bad = 0;
    println!(
        "{:<14} {:<44} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse"
    );
    for ((workload, ma), (_, mb)) in workloads(&a).into_iter().zip(workloads(&b)) {
        let names = ma
            .as_object()
            .map(|m| m.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>());
        for name in names.unwrap_or_default() {
            let (Some(x), Some(y)) = (value_of(ma, &name), value_of(mb, &name)) else {
                println!("{workload:<14} {name:<44} missing in B");
                bad += 1;
                continue;
            };
            let bound = bounded.iter().find(|(n, ..)| *n == name);
            let lower = bound.is_none_or(|(_, lower, _)| *lower);
            let worse = if x == y {
                0.0
            } else if lower {
                (y - x) / x.abs()
            } else {
                (x - y) / x.abs()
            };
            let verdict = if !host_clock(&name) {
                if x.to_bits() == y.to_bits() {
                    "identical"
                } else {
                    bad += 1;
                    "DIFFERS (must be identical)"
                }
            } else {
                match bound {
                    Some((_, _, limit)) if worse > *limit => {
                        bad += 1;
                        "WORSE THAN BOUND"
                    }
                    Some(_) => "within bound",
                    None => "informational",
                }
            };
            println!(
                "{workload:<14} {name:<44} {x:>14.6} {y:>14.6} {:>7.2}%  {verdict}",
                100.0 * worse
            );
        }
    }
    if bad > 0 {
        println!("{bad} metric(s) do not repeat");
        1
    } else {
        println!("B repeats A within the declared bounds");
        0
    }
}
