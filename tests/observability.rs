//! End-to-end observability: a shared multi-stream run produces a
//! [`RunReport`] artifact whose metrics snapshot and embedded decision
//! log survive a save/load round trip and replay through the CLI
//! renderers — the `run --report` → `trace`/`metrics` workflow without
//! the binary.

use scanshare_cli::{load_report, render};
use scanshare_repro::core::decision::render_lifecycles;
use scanshare_repro::core::SharingConfig;
use scanshare_repro::engine::{run_workload, CpuClass, SharingMode};
use scanshare_repro::storage::SimDuration;
use scanshare_repro::tpch::{generate, q6, staggered_workload, TpchConfig};

#[test]
fn shared_run_artifact_replays_through_the_cli_layer() {
    let cfg = TpchConfig::tiny();
    let db = generate(&cfg);

    // Two overlapping streams over the same range at different speeds:
    // the fast leader gets grouped with — and throttled against — the
    // slow trailer, so the slowdown series has something to show.
    let fast = q6(cfg.months as i64, 1);
    let mut spec = staggered_workload(
        &db,
        &fast,
        2,
        SimDuration::from_millis(20),
        SharingMode::ScanSharing(SharingConfig::new(0)),
    );
    for scan in &mut spec.streams[1].queries[0].scans {
        scan.cpu = CpuClass::cpu_bound();
    }

    let report = run_workload(&db, &spec).expect("shared run");

    // The acceptance triad: leader-trailer distance series, slowdown-cap
    // series, and a populated latency histogram.
    let distances: Vec<_> = report.metrics.series_with_prefix("group.").collect();
    assert!(
        distances.iter().any(|s| !s.points.is_empty()),
        "no per-group distance series"
    );
    let slowdowns: Vec<_> = report.metrics.series_with_prefix("scan.").collect();
    assert!(
        slowdowns.iter().any(|s| !s.points.is_empty()),
        "no per-scan slowdown series"
    );
    let hist = report
        .metrics
        .histogram("disk.read_us")
        .expect("read-latency histogram");
    assert!(hist.count > 0 && hist.p99 >= hist.p50);
    assert!(!report.decisions.is_empty());

    // Save the artifact, reload it through the CLI loader, and check the
    // replay sees exactly what the run recorded.
    let path = std::env::temp_dir().join(format!("scanshare_obs_{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    let loaded = load_report(path.to_str().unwrap()).expect("reload artifact");
    assert_eq!(loaded.makespan, report.makespan);
    assert_eq!(loaded.metrics, report.metrics);
    assert_eq!(loaded.decisions, report.decisions);
    std::fs::remove_file(&path).ok();

    // Both renderers produce the tables the subcommands print.
    let trace_text = render_lifecycles(&loaded.decisions);
    assert!(trace_text.contains("scan lifecycles"));
    assert!(trace_text.contains("events"));
    let metrics_text = render::render_metrics(&loaded);
    assert!(metrics_text.contains("disk.read_us"));
    assert!(metrics_text.contains("group timelines"));
    assert!(metrics_text.contains("scan timelines"));
}
