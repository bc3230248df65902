//! Integration tests of the `scanshare run --faults` contract: bad
//! fault-plan files exit 2 with a one-line diagnostic, a plan that
//! aborts scans turns into the distinct "degraded run" exit 3, and an
//! empty plan leaves the success path untouched. Scripted pipelines
//! (CI fault matrices, bench gates) key off exactly these codes. Each
//! committed plan under `results/fault_plans/` does what its
//! EXPERIMENTS.md row says. A spec the engine cannot run — a scan
//! naming a column its table lacks — is the engine-error exit 1 with
//! the engine's one line, never a panic.

use std::process::Command;

use scanshare::{DeliveryMode, SharingConfig};
use scanshare_cli::RunSpec;
use scanshare_engine::{Access, FaultSummary, SharingMode};
use scanshare_storage::SimDuration;
use scanshare_tpch::{generate, throughput_workload, TpchConfig};

fn scanshare(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scanshare"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Write a tiny but runnable spec file and return its path.
fn tiny_spec(tag: &str) -> std::path::PathBuf {
    spec_file(tag, |_| {})
}

/// Write the tiny spec after `edit` had its way with it.
fn spec_file(tag: &str, edit: impl FnOnce(&mut RunSpec)) -> std::path::PathBuf {
    let tpch = TpchConfig::tiny();
    let db = generate(&tpch);
    let workload = throughput_workload(
        &db,
        2,
        tpch.months as i64,
        tpch.seed,
        SharingMode::ScanSharing(SharingConfig::new(0)),
    );
    let mut spec = RunSpec { tpch, workload };
    edit(&mut spec);
    let path = std::env::temp_dir().join(format!(
        "scanshare_fault_spec_{tag}_{}.json",
        std::process::id()
    ));
    std::fs::write(&path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
    path
}

fn tmp_file(tag: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "scanshare_fault_plan_{tag}_{}.json",
        std::process::id()
    ));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn missing_and_malformed_fault_plans_are_exit_2_with_one_line_diagnostic() {
    let spec = tiny_spec("badplan");
    let spec_str = spec.to_str().unwrap();

    // Missing file: named in a single-line diagnostic.
    let out = scanshare(&[
        "run",
        "--spec",
        spec_str,
        "--faults",
        "/nonexistent/plan.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "missing plan: {:?}", out.status);
    let err = stderr_of(&out);
    assert_eq!(err.trim_end().lines().count(), 1, "got: {err:?}");
    assert!(
        err.contains("cannot read /nonexistent/plan.json"),
        "got: {err:?}"
    );
    assert!(out.stdout.is_empty(), "no output on failure");

    // Malformed JSON: still exit 2, diagnostic names the file and the
    // kind of failure. The run must not start.
    let bad = tmp_file("malformed", "{ \"plan\": [not json");
    let bad_str = bad.to_str().unwrap();
    let out = scanshare(&["run", "--spec", spec_str, "--faults", bad_str]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "malformed plan: {:?}",
        out.status
    );
    let err = stderr_of(&out);
    assert_eq!(err.trim_end().lines().count(), 1, "got: {err:?}");
    assert!(err.contains("invalid fault plan"), "got: {err:?}");
    assert!(err.contains(bad_str), "must name the file: {err:?}");
    assert!(out.stdout.is_empty(), "no output on failure");

    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&bad).ok();
}

#[test]
fn permanent_fault_abort_is_the_distinct_exit_3() {
    let spec = tiny_spec("permanent");
    let plan = tmp_file(
        "permanent",
        r#"{"plan": {"seed": 1, "rules": [{"fault": "PermanentError"}]}}"#,
    );
    let out = scanshare(&[
        "run",
        "--spec",
        spec.to_str().unwrap(),
        "--faults",
        plan.to_str().unwrap(),
    ]);
    // Degraded, not failed: the run completes with partial results and
    // reports the aborted scans through its own exit code.
    assert_eq!(out.status.code(), Some(3), "got {:?}", out.status);
    let err = stderr_of(&out);
    assert!(err.contains("degraded run"), "got: {err:?}");
    assert!(err.contains("aborted by injected faults"), "got: {err:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("run"), "headline still printed: {stdout:?}");

    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&plan).ok();
}

/// The retry budget is exactly `max_retries`: one scan whose every read
/// fails transiently is retried three times, then aborted — four
/// injected errors, three retries, one abort, exit 3.
#[test]
fn a_transient_fault_on_every_read_spends_exactly_max_retries() {
    let spec = spec_file("retry_budget", |spec| {
        spec.workload.mode = SharingMode::Base;
        spec.workload.streams.truncate(1);
        let queries = &mut spec.workload.streams[0].queries;
        queries.truncate(1);
        queries[0].scans.truncate(1);
    });
    let plan = tmp_file(
        "always",
        r#"{"plan": {"seed": 1, "rules": [{"fault": {"TransientError": {"probability": 1.0}}}]},
            "max_retries": 3}"#,
    );
    let report = std::env::temp_dir().join(format!(
        "scanshare_retry_budget_report_{}.json",
        std::process::id()
    ));
    let out = scanshare(&[
        "run",
        "--spec",
        spec.to_str().unwrap(),
        "--faults",
        plan.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr_of(&out));
    let faults = scanshare_cli::load_report(report.to_str().unwrap())
        .unwrap()
        .faults;
    assert_eq!(faults.retries, 3, "{faults:?}");
    assert_eq!(faults.transient_errors, 4, "{faults:?}");
    assert_eq!(faults.scans_aborted, 1, "{faults:?}");
    for path in [&spec, &plan, &report] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn empty_fault_plan_keeps_the_success_exit_0() {
    let spec = tiny_spec("empty");
    let plan = tmp_file("empty", "{}");
    let out = scanshare(&[
        "run",
        "--spec",
        spec.to_str().unwrap(),
        "--faults",
        plan.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "got {:?}", out.status);
    assert!(stderr_of(&out).is_empty(), "clean run is quiet on stderr");

    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&plan).ok();
}

/// Each canned plan in `results/fault_plans/` does what EXPERIMENTS.md's
/// table of them says.
#[test]
fn every_committed_fault_plan_does_what_its_table_row_says() {
    let spec = tiny_spec("committed");
    let run = |plan: &str| {
        let plan = format!(
            "{}/../../results/fault_plans/{plan}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let report = std::env::temp_dir().join(format!(
            "scanshare_committed_plan_report_{}.json",
            std::process::id()
        ));
        let report = report.to_str().unwrap();
        let out = scanshare(&[
            "run",
            "--spec",
            spec.to_str().unwrap(),
            "--faults",
            &plan,
            "--report",
            report,
        ]);
        let r = scanshare_cli::load_report(report).unwrap();
        std::fs::remove_file(report).ok();
        (out.status.code(), r)
    };

    let (code, r) = run("empty");
    assert_eq!(code, Some(0));
    assert_eq!(r.faults, FaultSummary::default());

    let (code, r) = run("latency_spikes");
    assert_eq!(code, Some(0));
    assert!(r.faults.delays_injected > 0, "{:?}", r.faults);

    let (code, r) = run("transient_1pct");
    assert_eq!(code, Some(0));
    assert!(r.faults.retries > 0, "{:?}", r.faults);
    assert_eq!(r.faults.scans_aborted, 0, "{:?}", r.faults);

    // Device 0, the only disk, dies at t = 100 ms; this run lasts longer.
    let (code, r) = run("permanent_dev0");
    assert!(
        r.makespan > SimDuration::from_millis(100),
        "{:?}",
        r.makespan
    );
    assert_eq!(code, Some(3));
    assert!(r.faults.scans_aborted > 0, "{:?}", r.faults);
    std::fs::remove_file(&spec).ok();
}

#[test]
fn a_scan_over_a_column_its_table_lacks_is_exit_1_with_one_line() {
    for delivery in [DeliveryMode::Pull, DeliveryMode::Push] {
        let spec = spec_file("badcolumn", |spec| {
            for stream in &mut spec.workload.streams {
                stream.queries[0].scans[0].agg.sum_cols = vec![99];
            }
            if let SharingMode::ScanSharing(cfg) = &mut spec.workload.mode {
                cfg.delivery = delivery;
            }
        });
        let out = scanshare(&["run", "--spec", spec.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{delivery:?}: {:?}", out.status);
        let err = stderr_of(&out);
        assert_eq!(err.lines().count(), 1, "{delivery:?}: {err:?}");
        assert!(
            err.contains("has no Float64 column 99"),
            "{delivery:?}: {err:?}"
        );
        assert!(!err.contains("internal error"), "{delivery:?}: {err:?}");
        std::fs::remove_file(&spec).ok();
    }
}

/// A RID-range scan of a table without a RID index names what is
/// missing: `lineitem` is MDC-clustered, so "not MDC-clustered" would be
/// wrong about it.
#[test]
fn a_rid_scan_of_a_table_without_a_rid_index_is_exit_1_naming_it() {
    let spec = spec_file("norid", |spec| {
        spec.workload.streams.truncate(1);
        let query = &mut spec.workload.streams[0].queries[0];
        query.scans.truncate(1);
        query.scans[0].table = "lineitem".into();
        query.scans[0].access = Access::RidRange { lo: 0, hi: 10 };
    });
    let out = scanshare(&["run", "--spec", spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    assert_eq!(
        stderr_of(&out),
        "run failed: table 'lineitem' has no RID index\n"
    );
    std::fs::remove_file(&spec).ok();
}
