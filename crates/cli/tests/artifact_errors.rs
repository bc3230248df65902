//! Integration tests of the `scanshare` binary's artifact error paths:
//! `trace`, `metrics`, and `explain` against missing, malformed or
//! outdated files must replay what they can or exit non-zero with a
//! single-line diagnostic on stderr — the contract scripted pipelines
//! (CI, bench gates) rely on.

use std::process::Command;

fn scanshare(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scanshare"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn missing_artifact_is_exit_2_with_one_line_diagnostic() {
    for sub in ["trace", "metrics", "explain"] {
        let out = scanshare(&[sub, "--artifact", "/nonexistent/report.json"]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{sub}: expected exit 2, got {:?}",
            out.status
        );
        let err = stderr_of(&out);
        assert_eq!(
            err.trim_end().lines().count(),
            1,
            "{sub}: diagnostic must be one line, got: {err:?}"
        );
        assert!(
            err.contains("cannot read /nonexistent/report.json"),
            "{sub}: diagnostic must name the file, got: {err:?}"
        );
        assert!(out.stdout.is_empty(), "{sub}: no output on failure");
    }
}

#[test]
fn malformed_artifact_is_exit_2_and_names_the_file() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "scanshare_bad_artifact_{}.json",
        std::process::id()
    ));
    std::fs::write(&path, "{ this is not json").unwrap();
    let path_str = path.to_str().unwrap();
    for sub in ["metrics", "explain"] {
        let out = scanshare(&[sub, "--artifact", path_str]);
        assert_eq!(out.status.code(), Some(2), "{sub} on malformed artifact");
        let err = stderr_of(&out);
        assert_eq!(err.trim_end().lines().count(), 1, "{sub}: got {err:?}");
        assert!(err.contains(path_str), "{sub}: must name the file: {err:?}");
        assert!(err.contains("invalid report"), "{sub}: got {err:?}");
    }
    // `trace` accepts either a report or a JSON-lines decision log, so
    // its diagnostic names both rejected interpretations.
    let out = scanshare(&["trace", "--artifact", path_str]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert_eq!(err.trim_end().lines().count(), 1, "trace: got {err:?}");
    assert!(
        err.contains("neither a RunReport nor a decision-log JSONL"),
        "trace: got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// Artifacts written while the engine kept a trace ring beside the
/// decision log: a report still carrying its `"trace"` array replays
/// from its decisions, and a trace-ring JSONL file is refused.
#[test]
fn old_trace_artifacts_replay_from_their_decisions_or_are_refused() {
    use scanshare::decision::render_lifecycles;
    use serde_json::{Map, Value};
    let cfg = scanshare_tpch::TpchConfig::tiny();
    let db = scanshare_tpch::generate(&cfg);
    let sharing = scanshare_engine::SharingMode::ScanSharing(scanshare::SharingConfig::new(0));
    let w = scanshare_tpch::throughput_workload(&db, 2, cfg.months as i64, cfg.seed, sharing);
    let report = scanshare_engine::run_workload(&db, &w).unwrap();
    let old_trace = r#"[{"at":0,"event":{"ScanStarted":{"scan":0,"query":"Q6","stream":0,"placement":"fresh"}}},{"at":9,"event":{"ScanFinished":{"scan":0}}}]"#;

    // The old report: a `trace` key, and a log without lifecycle records.
    let mut old = Map::new();
    let new: Value = serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    for (k, v) in new.as_object().unwrap().iter() {
        if k != "decisions" {
            old.insert(k, v.clone());
            continue;
        }
        let lifecycle = ["ScanStarted", "ScanWrapped", "ScanEnded"];
        let kept = v.as_array().unwrap().iter().filter(|r| {
            let event = r.get("event").and_then(Value::as_object).unwrap();
            !lifecycle.contains(&event.first().unwrap().0)
        });
        old.insert(k, Value::Array(kept.cloned().collect()));
        old.insert("trace", serde_json::from_str(old_trace).unwrap());
    }
    let dir = std::env::temp_dir();
    let path = dir.join(format!("scanshare_old_report_{}.json", std::process::id()));
    let old = serde_json::to_string(&Value::Object(old)).unwrap();
    std::fs::write(&path, &old).unwrap();
    let out = scanshare(&["trace", "--artifact", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let text = String::from_utf8(out.stdout).unwrap();
    let loaded: scanshare_engine::RunReport = serde_json::from_str(&old).unwrap();
    assert_eq!(text, render_lifecycles(&loaded.decisions));
    // Placement and start survive in the decisions; query, stream and a
    // normal end were only ever in the trace.
    let first = text.lines().nth(2).unwrap();
    let cols: Vec<&str> = first.split_whitespace().collect();
    assert_eq!(cols[..4], ["0", "-", "-", "fresh"], "got: {first}");
    assert_eq!(cols[5..7], ["-", "-"], "no finish, no elapsed: {first}");
    assert!(!text.contains(" start "), "got: {text}");
    std::fs::remove_file(&path).ok();

    // A trace-ring JSONL file is neither accepted input.
    let path = dir.join(format!("scanshare_old_trace_{}.jsonl", std::process::id()));
    let lines: Vec<Value> = serde_json::from_str(old_trace).unwrap();
    let jsonl: Vec<String> = lines
        .iter()
        .map(|l| serde_json::to_string(l).unwrap())
        .collect();
    std::fs::write(&path, jsonl.join("\n")).unwrap();
    let out = scanshare(&["trace", "--artifact", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert_eq!(err.trim_end().lines().count(), 1, "got {err:?}");
    assert!(err.contains("RunReport"), "got {err:?}");
    assert!(err.contains("decision-log JSONL"), "got {err:?}");
    assert!(out.stdout.is_empty());
    std::fs::remove_file(&path).ok();
}

/// Only the sections added after the first artifacts may be missing: a
/// report or spec without a field that has no default is refused, and
/// the diagnostic's first line names the field.
#[test]
fn a_missing_required_field_is_exit_2_naming_it() {
    let dir = std::env::temp_dir();
    let report = dir.join(format!("scanshare_no_makespan_{}.json", std::process::id()));
    std::fs::write(&report, r#"{"stream_elapsed": []}"#).unwrap();
    let out = scanshare(&["explain", "--artifact", report.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert_eq!(err.trim_end().lines().count(), 1, "got {err:?}");
    assert!(
        err.contains("missing field `makespan` in `RunReport`"),
        "got {err:?}"
    );

    let template = String::from_utf8(scanshare(&["spec-template"]).stdout).unwrap();
    let spec = dir.join(format!(
        "scanshare_no_threshold_{}.json",
        std::process::id()
    ));
    std::fs::write(
        &spec,
        template.replace("\"throttle_threshold_extents\": 2,", ""),
    )
    .unwrap();
    let out = scanshare(&["run", "--spec", spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.lines().next().is_some_and(
            |l| l.contains("missing field `throttle_threshold_extents` in `SharingConfig`")
        ),
        "got {err:?}"
    );
    std::fs::remove_file(&report).ok();
    std::fs::remove_file(&spec).ok();
}

/// A spec with a zero pool, extent, CPU count or block size is refused
/// before any data is generated: exit 2 and one line naming the field.
#[test]
fn a_zero_size_in_a_spec_is_exit_2_naming_it() {
    let template = scanshare(&["spec-template"]);
    let spec: scanshare_cli::RunSpec = serde_json::from_slice(&template.stdout).unwrap();
    let path = std::env::temp_dir().join(format!("scanshare_zero_{}.json", std::process::id()));
    for field in [
        "workload.pool_pages",
        "workload.engine.extent_pages",
        "workload.engine.n_cpus",
        "tpch.block_pages",
    ] {
        let mut bad = spec.clone();
        match field {
            "workload.pool_pages" => bad.workload.pool_pages = 0,
            "workload.engine.extent_pages" => bad.workload.engine.extent_pages = 0,
            "workload.engine.n_cpus" => bad.workload.engine.n_cpus = 0,
            _ => bad.tpch.block_pages = 0,
        }
        std::fs::write(&path, serde_json::to_string(&bad).unwrap()).unwrap();
        let out = scanshare(&["run", "--spec", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{field}: {:?}", out.status);
        let err = stderr_of(&out);
        assert_eq!(err.trim_end().lines().count(), 1, "{field}: got {err:?}");
        assert!(
            err.contains(&format!("{field} must be at least 1")),
            "{field}: got {err:?}"
        );
        assert!(out.stdout.is_empty(), "{field}: no output on failure");
    }
    std::fs::remove_file(&path).ok();
}

/// A pool smaller than one extent is refused the same way, under pull
/// and push: exit 2 and one line naming both fields and their values.
#[test]
fn a_pool_below_one_extent_is_exit_2_naming_both_sizes() {
    let template = scanshare(&["spec-template"]);
    let spec: scanshare_cli::RunSpec = serde_json::from_slice(&template.stdout).unwrap();
    let path = std::env::temp_dir().join(format!("scanshare_pool_{}.json", std::process::id()));
    let extent = spec.workload.engine.extent_pages as usize;
    for delivery in ["pull", "push"] {
        for pool in [1, 2, extent - 1] {
            let mut bad = spec.clone();
            bad.workload.pool_pages = pool;
            std::fs::write(&path, serde_json::to_string(&bad).unwrap()).unwrap();
            let args = [
                "run",
                "--spec",
                path.to_str().unwrap(),
                "--delivery",
                delivery,
            ];
            let out = scanshare(&args);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{delivery} {pool}: {:?}",
                out.status
            );
            let err = stderr_of(&out);
            assert_eq!(
                err.trim_end().lines().count(),
                1,
                "{delivery} {pool}: {err:?}"
            );
            let want = format!(
                "workload.pool_pages ({pool}) must be at least workload.engine.extent_pages ({extent})"
            );
            assert!(err.contains(&want), "{delivery} {pool}: got {err:?}");
            assert!(
                out.stdout.is_empty(),
                "{delivery} {pool}: no output on failure"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn explain_of_unknown_scan_is_exit_2() {
    // A structurally valid report with no decisions: --scan must fail
    // with a one-line diagnostic, not print an empty narrative.
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "scanshare_empty_report_{}.json",
        std::process::id()
    ));
    // Generate a real (tiny, base-mode) artifact through the binary.
    let spec_path = dir.join(format!("scanshare_spec_{}.json", std::process::id()));
    let template = scanshare(&["spec-template"]);
    assert!(template.status.success());
    let mut spec: scanshare_cli::RunSpec = serde_json::from_slice(&template.stdout).unwrap();
    spec.tpch = scanshare_tpch::TpchConfig::tiny();
    spec.workload.mode = scanshare_engine::SharingMode::Base;
    std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
    let run = scanshare(&[
        "run",
        "--spec",
        spec_path.to_str().unwrap(),
        "--report",
        path.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "run failed: {}", stderr_of(&run));

    let out = scanshare(&[
        "explain",
        "--artifact",
        path.to_str().unwrap(),
        "--scan",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert_eq!(err.trim_end().lines().count(), 1, "got {err:?}");
    assert!(err.contains("no decisions for scan 0"), "got {err:?}");
    // Without --scan the same artifact explains its emptiness at exit 0.
    let out = scanshare(&["explain", "--artifact", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("no decisions recorded"));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&spec_path).ok();
}
