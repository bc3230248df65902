//! Golden renders of `scanshare profile`: the per-phase table (with and
//! without its wall-clock section) and the folded flamegraph stacks,
//! over a [`ProfileSummary`] that `summarize` folds from a fixed span
//! list built here — no run, so every number, wall times included, is
//! written by hand and the text repeats on any machine.
//!
//! The expected texts in `golden/` are not regenerated: they were written
//! by the commit before this test existed. Any change to how spans fold
//! into phases, stacks and hottest spans, or to how a summary renders,
//! shows up here as a byte difference.
//!
//! Last, the path a user takes end to end through the binary: a profiled
//! `run` of the `spec-template` spec, then `profile` of its saved report.

use std::process::Command;

use scanshare::obs::span::{summarize, validate_chrome_trace, SpanRecord};
use scanshare::{ProfileSummary, Track};
use scanshare_cli::profile::{render_collapsed, render_profile};

/// One span: `(parent, name, track, virtual µs start..end, wall ns
/// start..end)`.
type Row = (Option<u64>, &'static str, Track, (u64, u64), (u64, u64));

/// Two streams' scan steps under one engine run, with extent fetches,
/// disk misses and throttle waits below them, manager decisions nested
/// under the steps that triggered them, an instant, a child that
/// outlasts its parent (exclusive time saturates at 0) and a second root.
fn summary() -> ProfileSummary {
    let (d, m) = (Track::Driver, Track::Manager);
    let (s0, s1) = (Track::Stream(0), Track::Stream(1));
    #[rustfmt::skip]
    let rows: [Row; 16] = [
        (None, "engine.run", d, (0, 90_000), (0, 4_000_000)),
        (Some(0), "scan.step", s0, (0, 30_000), (10_000, 1_210_000)),
        (Some(1), "extent.fetch", s0, (0, 22_000), (20_000, 820_000)),
        (Some(2), "io.miss", s0, (1_000, 21_000), (30_000, 630_000)),
        (Some(1), "manager.update", m, (22_000, 23_500), (830_000, 1_030_000)),
        (Some(0), "scan.step", s1, (5_000, 41_000), (1_300_000, 2_500_000)),
        (Some(5), "throttle.wait", s1, (5_000, 17_000), (1_310_000, 1_320_000)),
        (Some(5), "extent.fetch", s1, (17_000, 40_000), (1_330_000, 2_330_000)),
        (Some(7), "io.miss", s1, (18_000, 39_000), (1_340_000, 2_140_000)),
        (Some(5), "manager.place", m, (40_000, 40_000), (2_340_000, 2_345_000)),
        (Some(0), "scan.step", s0, (41_000, 70_000), (2_600_000, 3_400_000)),
        (Some(10), "extent.fetch", s0, (41_000, 45_000), (2_610_000, 2_910_000)),
        (Some(10), "throttle.wait", s0, (45_000, 80_000), (2_920_000, 2_930_000)),
        (Some(0), "report.encode", d, (90_000, 90_000), (3_500_000, 3_990_000)),
        (None, "engine.warmup", d, (90_000, 92_500), (4_000_000, 4_600_000)),
        (Some(14), "io.miss", s1, (90_500, 92_000), (4_100_000, 4_500_000)),
    ];
    let records: Vec<SpanRecord> = rows
        .into_iter()
        .enumerate()
        .map(|(id, (parent, name, track, vt, wall))| SpanRecord {
            id: id as u64,
            parent,
            name: name.to_string(),
            track,
            vt_start_us: vt.0,
            vt_end_us: vt.1,
            wall_start_ns: wall.0,
            wall_end_ns: wall.1,
            attrs: Vec::new(),
        })
        .collect();
    summarize(&records, 3)
}

/// `got` equals `golden` line by line, then byte for byte.
fn pinned(what: &str, got: &str, golden: &str) {
    for (n, (line, want)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(line, want, "{what}: line {} differs from the golden", n + 1);
    }
    assert_eq!(got, golden, "{what}");
}

#[test]
fn profile_table_of_a_fixed_span_list_is_pinned() {
    let sum = summary();
    // The top-3 cut with the wall section, then every hottest span with
    // the wall section stripped (dashes).
    let got = render_profile(&sum, 3) + &render_profile(&sum.virtual_only(), 100);
    pinned(
        "render_profile",
        &got,
        include_str!("golden/profile_fixed_spans.txt"),
    );
}

#[test]
fn collapsed_stacks_of_a_fixed_span_list_are_pinned() {
    pinned(
        "render_collapsed",
        &render_collapsed(&summary()),
        include_str!("golden/profile_fixed_spans_collapsed.txt"),
    );
}

/// `run --spec S --profile-out T --report R` saves a valid Chrome trace
/// `T` and a report `R` whose profile `profile --artifact R` renders as a
/// phase table naming the scan, fetch and CPU phases, and as folded
/// stacks with `--collapse`; every command exits 0.
#[test]
fn a_profiled_run_renders_through_profile() {
    let dir = std::env::temp_dir().join(format!("scanshare_profile_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (spec, trace, report) = (path("spec.json"), path("trace.json"), path("report.json"));
    let scanshare = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_scanshare"))
            .args(args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    std::fs::write(&spec, scanshare(&["spec-template"])).unwrap();
    let run = [
        "run",
        "--spec",
        &spec,
        "--profile-out",
        &trace,
        "--report",
        &report,
    ];
    scanshare(&run);
    let table = scanshare(&["profile", "--artifact", &report]);
    for phase in ["scan.step", "extent.fetch", "cpu.process"] {
        assert!(table.contains(phase), "no {phase} in\n{table}");
    }
    let folded = scanshare(&["profile", "--artifact", &report, "--collapse"]);
    assert!(folded.contains("scan.step;extent.fetch"), "{folded}");
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    validate_chrome_trace(&trace).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
