//! Golden render of `scanshare metrics --quantiles` over the committed
//! smoke report `results/policy_grouping_smoke_report.json`.
//!
//! The expected text in `golden/` was written by the commit before the
//! run's metrics became plain values (when a shared name-keyed registry
//! still held them) and is not regenerated: any change to how a
//! snapshot loads, sorts or renders shows up here as a byte difference.
//! The report has well over a hundred series and anchor ids past 10, so
//! the name order (`group.10.*` before `group.2.*`) is covered.

use std::process::Command;

const REPORT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/policy_grouping_smoke_report.json"
);

const GOLDEN: &str = include_str!("golden/policy_grouping_smoke_metrics_quantiles.txt");

#[test]
fn metrics_quantiles_render_of_the_smoke_report_is_pinned() {
    let report = scanshare_engine::persist::load_report(REPORT).expect("report loads");
    assert_eq!(report.metrics.series.len(), 138);
    assert!(report.metrics.series("group.11.distance_pages").is_some());

    let out = Command::new(env!("CARGO_BIN_EXE_scanshare"))
        .args(["metrics", "--artifact", REPORT, "--quantiles"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let got = String::from_utf8(out.stdout).expect("utf-8 render");
    assert_eq!(
        got,
        scanshare_cli::render::render_metrics_detailed(&report, true)
    );
    for (n, (line, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(line, want, "line {} differs from the golden text", n + 1);
    }
    assert_eq!(got, GOLDEN);
}
