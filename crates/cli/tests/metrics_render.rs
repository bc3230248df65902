//! Golden renders of `scanshare metrics --quantiles`, `explain` and
//! `trace` over the committed smoke report
//! `results/policy_grouping_smoke_report.json`.
//!
//! The expected texts in `golden/` are not regenerated. The `metrics`
//! text was written by the commit before the run's metrics became plain
//! values (when a shared name-keyed registry still held them); the
//! `explain` and `trace` texts by the commit before the manager came to
//! own its decision log. Any change to how a snapshot or a decision log
//! loads, sorts or renders shows up here as a byte difference. The
//! report has well over a hundred series and anchor ids past 10, so the
//! name order (`group.10.*` before `group.2.*`) is covered.

use std::process::Command;

const REPORT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/policy_grouping_smoke_report.json"
);

/// Run the CLI with `args` and return its stdout, checking it exits 0
/// and that it equals `golden` line by line, then byte for byte.
fn pinned(args: &[&str], golden: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_scanshare"))
        .args(args)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    let got = String::from_utf8(out.stdout).expect("utf-8 render");
    for (n, (line, want)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            line,
            want,
            "{args:?}: line {} differs from the golden text",
            n + 1
        );
    }
    assert_eq!(got, golden, "{args:?}");
    got
}

#[test]
fn metrics_quantiles_render_of_the_smoke_report_is_pinned() {
    let report = scanshare_engine::persist::load_report(REPORT).expect("report loads");
    assert_eq!(report.metrics.series.len(), 138);
    assert!(report.metrics.series("group.11.distance_pages").is_some());

    let got = pinned(
        &["metrics", "--artifact", REPORT, "--quantiles"],
        include_str!("golden/policy_grouping_smoke_metrics_quantiles.txt"),
    );
    assert_eq!(
        got,
        scanshare_cli::render::render_metrics_detailed(&report, true)
    );
}

#[test]
fn explain_render_of_the_smoke_report_is_pinned() {
    pinned(
        &["explain", "--artifact", REPORT],
        include_str!("golden/policy_grouping_smoke_explain.txt"),
    );
}

#[test]
fn trace_render_of_the_smoke_report_is_pinned() {
    pinned(
        &["trace", "--artifact", REPORT],
        include_str!("golden/policy_grouping_smoke_trace.txt"),
    );
}
