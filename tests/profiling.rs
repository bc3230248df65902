//! End-to-end span profiling and SLO evaluation: randomized span trees
//! export valid Chrome trace-event JSON, `run --profile-out` produces a
//! Perfetto-loadable artifact plus an embedded summary whose wall-clock
//! phases account for the whole recording, and declarative SLO rules
//! turn into report verdicts and process exit codes.

use scanshare_cli::{dispatch, RunOutputs, RunSpec};
use scanshare_prng::Rng;
use scanshare_repro::core::obs::span::validate_chrome_trace;
use scanshare_repro::core::{SharingConfig, SpanProfiler, Track};
use scanshare_repro::engine::slo::{SloConfig, SloOp, SloRule};
use scanshare_repro::engine::SharingMode;
use scanshare_repro::storage::SimTime;
use scanshare_repro::tpch::{generate, throughput_workload, TpchConfig};

/// Property: any span forest recorded through the profiler API — random
/// nesting depth, random tracks, instants and attributes sprinkled in —
/// exports to Chrome trace-event JSON that passes structural validation
/// (B/E balance per track, stack-consistent nesting, non-decreasing
/// range timestamps).
#[test]
fn random_span_trees_round_trip_through_the_perfetto_exporter() {
    let names = ["engine.run", "scan.step", "extent.fetch", "cpu.process"];
    let tracks = [
        Track::Driver,
        Track::Manager,
        Track::Stream(0),
        Track::Stream(1),
        Track::Stream(7),
    ];
    for seed in 0..25u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let p = SpanProfiler::default();
        let mut open: Vec<scanshare_repro::core::SpanId> = Vec::new();
        // The simulated event loop only moves forward, so the generator
        // drives one global non-decreasing virtual clock.
        let mut vt = 0u64;
        for _ in 0..200 {
            vt += rng.bounded_u64(50);
            let now = SimTime::from_micros(vt);
            match rng.bounded_u64(5) {
                0 | 1 => {
                    let track = *rng.choose(&tracks).unwrap();
                    let name = *rng.choose(&names).unwrap();
                    let id = if open.is_empty() || rng.bounded_u64(2) == 0 {
                        p.begin(track, name, now)
                    } else {
                        p.begin_child(name, now)
                    };
                    open.push(id);
                }
                2 => {
                    if let Some(id) = open.pop() {
                        p.end(id, now);
                    }
                }
                3 => {
                    p.instant("io.miss", now);
                }
                _ => {
                    if let Some(id) = rng.choose(&open) {
                        p.attr(*id, "k", vt.to_string());
                    }
                }
            }
        }
        // Ending a span mid-stack closes its dangling children too, so
        // drain by always ending the *oldest* still-open span.
        if let Some(root) = open.first().copied() {
            vt += 1;
            p.end(root, SimTime::from_micros(vt));
        }
        let trace = p.perfetto();
        validate_chrome_trace(&trace).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        // Begin/end balance: every range span contributes exactly one B
        // and one E; zero-virtual-width childless spans export as a
        // single "i" instant instead.
        let events = trace
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .count() as u64
        };
        let records = p.records();
        let parents: std::collections::HashSet<u64> =
            records.iter().filter_map(|r| r.parent).collect();
        let instants = records
            .iter()
            .filter(|r| r.is_instant() && !parents.contains(&r.id))
            .count() as u64;
        let ranges = records.len() as u64 - instants;
        assert_eq!(count("B"), ranges, "seed {seed}: B count");
        assert_eq!(count("E"), ranges, "seed {seed}: E count");
        assert_eq!(count("i"), instants, "seed {seed}: i count");

        // The folded summary balances too: every span is attributed to
        // a phase exactly once.
        let sum = p.summary();
        assert_eq!(
            sum.phases.iter().map(|ph| ph.count).sum::<u64>(),
            p.len() as u64,
            "seed {seed}: phase counts"
        );
    }
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("scanshare_prof_{tag}_{}.json", std::process::id()))
}

fn tiny_spec(slo: SloConfig) -> RunSpec {
    let tpch = TpchConfig::tiny();
    let db = generate(&tpch);
    let mut workload = throughput_workload(
        &db,
        2,
        tpch.months as i64,
        tpch.seed,
        SharingMode::ScanSharing(SharingConfig::new(0)),
    );
    workload.slo = slo;
    RunSpec { tpch, workload }
}

fn run_cmd(spec_path: &std::path::Path, outputs: RunOutputs) -> i32 {
    let spec = spec_path.to_string_lossy().into_owned();
    let mut argv = vec!["run".to_string(), "--spec".to_string(), spec];
    for (flag, path) in [
        ("--report", outputs.report),
        ("--profile-out", outputs.profile),
    ] {
        argv.extend(path.map(|p| [flag.to_string(), p]).into_iter().flatten());
    }
    dispatch(&argv)
}

#[test]
fn profile_out_writes_a_valid_trace_and_a_wall_accounting_summary() {
    let spec = tiny_spec(SloConfig::default());
    let spec_path = temp_path("spec");
    let trace_path = temp_path("trace");
    let report_path = temp_path("report");
    std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();

    let code = run_cmd(
        &spec_path,
        RunOutputs {
            report: Some(report_path.to_string_lossy().into_owned()),
            profile: Some(trace_path.to_string_lossy().into_owned()),
        },
    );
    assert_eq!(code, 0);

    // The exported artifact is structurally valid Chrome trace-event
    // JSON: Perfetto's legacy loader accepts exactly this shape.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace: serde_json::Value = serde_json::from_str(&text).unwrap();
    validate_chrome_trace(&trace).unwrap();
    // One named track per scan stream, plus the driver's.
    assert!(text.contains("\"stream 0\""), "missing stream 0 track");
    assert!(text.contains("\"stream 1\""), "missing stream 1 track");
    assert!(text.contains("\"driver\""), "missing driver track");

    // The saved report embeds the folded summary, and its wall-clock
    // phases account for (at least) 95% of the recorded wall time — by
    // construction they partition it exactly.
    let report = scanshare_cli::load_report(report_path.to_str().unwrap()).unwrap();
    let profile = report.profile.expect("embedded profile summary");
    assert!(profile.spans > 0 && profile.total_vt_us > 0);
    let wall = profile.wall.expect("wall section");
    let accounted: u64 = wall.phases.iter().map(|p| p.excl_ns).sum();
    assert!(
        accounted as f64 >= wall.total_ns as f64 * 0.95,
        "phases account for {accounted} of {} ns",
        wall.total_ns
    );

    // Profiling is opt-in: the same spec without --profile-out writes a
    // byte-identical report whose profile section is null.
    let plain_path = temp_path("plain");
    let code = run_cmd(
        &spec_path,
        RunOutputs {
            report: Some(plain_path.to_string_lossy().into_owned()),
            profile: None,
        },
    );
    assert_eq!(code, 0);
    let parse = |path: &std::path::Path| -> serde_json::Value {
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    let plain = parse(&plain_path);
    assert_eq!(plain.get("profile"), Some(&serde_json::Value::Null));
    let serde_json::Value::Object(mut unprofiled) = parse(&report_path) else {
        panic!("a report is an object");
    };
    unprofiled.insert("profile", serde_json::Value::Null);
    assert_eq!(
        serde_json::Value::Object(unprofiled),
        plain,
        "profile section must be additive"
    );

    for p in [&spec_path, &trace_path, &report_path, &plain_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn slo_rules_drive_the_exit_code() {
    let rule = |name: &str, metric: &str, op: SloOp, value: f64| SloRule {
        name: name.into(),
        metric: metric.into(),
        op,
        value,
    };
    // (rules, expected exit code)
    let cases = [
        (
            vec![rule("warm", "hit_ratio", SloOp::Ge, 0.01)],
            0,
            "generous hit-ratio floor holds",
        ),
        (
            vec![
                rule("warm", "hit_ratio", SloOp::Ge, 0.01),
                rule("impossible", "hit_ratio", SloOp::Ge, 2.0),
            ],
            4,
            "unreachable hit ratio breaches",
        ),
        (
            vec![rule("typo", "hit_ration", SloOp::Ge, 0.0)],
            4,
            "unknown metrics fail closed",
        ),
    ];
    for (rules, expected, why) in cases {
        let spec = tiny_spec(SloConfig { rules });
        let spec_path = temp_path("slo_spec");
        let report_path = temp_path("slo_report");
        std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
        let code = run_cmd(
            &spec_path,
            RunOutputs {
                report: Some(report_path.to_string_lossy().into_owned()),
                profile: None,
            },
        );
        assert_eq!(code, expected, "{why}");
        // Verdicts are persisted in the artifact and narrated by explain.
        let report = scanshare_cli::load_report(report_path.to_str().unwrap()).unwrap();
        assert_eq!(
            report.slo.iter().filter(|v| !v.passed).count() > 0,
            expected == 4
        );
        let text = scanshare_cli::explain::render_explain(&report, None).unwrap();
        assert!(text.contains("SLO verdicts"), "{why}: {text}");
        std::fs::remove_file(&spec_path).ok();
        std::fs::remove_file(&report_path).ok();
    }
}
