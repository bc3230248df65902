//! CI performance-regression gate binary.
//!
//! ```sh
//! bench_gate --write-baseline results/baseline_smoke.json   # (re)pin
//! bench_gate --gate results/baseline_smoke.json             # CI check
//! bench_gate --gate results/baseline_smoke.json \
//!            --reps 5 --history results/history.jsonl       # + trend
//! ```
//!
//! The smoke workload is pinned (tiny scale, fixed seed, fixed stream
//! count) and runs on virtual time, so its numbers are bit-identical
//! across machines and runs: any drift past the per-metric tolerances in
//! the committed baseline is a real change in engine behavior, not
//! noise. Wall-clock numbers ARE noise, so `--reps N` repeats the smoke
//! pair N times and reports median/MAD plus a seeded-bootstrap 95% CI
//! (virtual metrics are asserted bit-identical across the reps);
//! `--history FILE` appends the run to an append-only JSONL ledger and
//! checks the new wall median against the pooled CI of the trailing
//! ledger window — informational unless `--trend-gate` is given.
//! Exit codes: 0 = pass, 1 = regression (or rep divergence, or a
//! flagged trend under `--trend-gate`), 2 = usage or I/O error.

use scanshare::{DeliveryMode, SharingConfig};
use scanshare_bench::gate::{
    collect_metrics, compare, has_regression, render_diffs, GateBaseline, Provenance, WallSection,
};
use scanshare_bench::history::{self, HistoryEntry, WallStats};
use scanshare_bench::stats::{self, ReplicateStats};
use scanshare_engine::{run_workloads, FaultsConfig, RunReport, SharingMode};
use scanshare_tpch::{generate, throughput_workload, TpchConfig};

/// Streams in the smoke workload.
const SMOKE_STREAMS: usize = 3;

fn smoke_config() -> TpchConfig {
    // Deliberately not the experiment runner's configuration: the gate
    // must ignore SCANSHARE_SCALE/SEED so the committed baseline always
    // matches.
    TpchConfig::tiny()
}

fn smoke_description(cfg: &TpchConfig, delivery: DeliveryMode) -> String {
    format!(
        "{SMOKE_STREAMS}-stream throughput smoke, scale {}, seed {}{}",
        cfg.scale,
        cfg.seed,
        if delivery.is_pull() {
            ""
        } else {
            ", push delivery"
        }
    )
}

/// Results of the replicated smoke pair: the (bit-identical) reports of
/// the first repetition, the legacy informational wall section (median
/// over reps), and the full replicate summary for the ledger.
struct SmokeRuns {
    base: RunReport,
    ss: RunReport,
    wall: WallSection,
    wall_stats: WallStats,
}

fn run_smoke_pair(
    jobs: usize,
    faults: &FaultsConfig,
    reps: usize,
    delivery: DeliveryMode,
) -> Result<SmokeRuns, String> {
    let cfg = smoke_config();
    let db = generate(&cfg);
    let months = cfg.months as i64;
    let mut base_spec =
        throughput_workload(&db, SMOKE_STREAMS, months, cfg.seed, SharingMode::Base);
    let mut ss_cfg = SharingConfig::new(0);
    ss_cfg.delivery = delivery;
    let mut ss_spec = throughput_workload(
        &db,
        SMOKE_STREAMS,
        months,
        cfg.seed,
        SharingMode::ScanSharing(ss_cfg),
    );
    base_spec.faults = faults.clone();
    ss_spec.faults = faults.clone();
    eprintln!(
        "running pinned smoke workload ({}), {reps} rep(s) ...",
        smoke_description(&cfg, delivery)
    );
    let mut first: Option<(RunReport, RunReport, String, String)> = None;
    let mut wall_ms_samples = Vec::with_capacity(reps);
    let mut pages_samples = Vec::with_capacity(reps);
    for rep in 0..reps.max(1) {
        let started = std::time::Instant::now();
        let mut reports = run_workloads(&db, &[base_spec.clone(), ss_spec.clone()], jobs);
        let wall = started.elapsed();
        let ss = reports.pop().unwrap().expect("ss smoke run");
        let base = reports.pop().unwrap().expect("base smoke run");
        let pages = base.pool.logical_reads + ss.pool.logical_reads;
        wall_ms_samples.push(wall.as_secs_f64() * 1e3);
        pages_samples.push(pages as f64 / wall.as_secs_f64().max(1e-9));
        // The simulator takes no wall-clock input, so every repetition
        // must serialize to the same bytes — a divergence means a
        // nondeterminism bug, which is itself a gate failure.
        let base_fp = serde_json::to_string(&base).expect("report serializes");
        let ss_fp = serde_json::to_string(&ss).expect("report serializes");
        match &first {
            None => first = Some((base, ss, base_fp, ss_fp)),
            Some((_, _, b0, s0)) => {
                if &base_fp != b0 || &ss_fp != s0 {
                    return Err(format!(
                        "virtual metrics diverged between rep 1 and rep {} — \
                         the simulator is nondeterministic",
                        rep + 1
                    ));
                }
            }
        }
    }
    let (base, ss, _, _) = first.expect("at least one rep ran");
    let reps_done = wall_ms_samples.len();
    let wall_ms = ReplicateStats::from_samples(&wall_ms_samples);
    let pages_per_wall_sec = ReplicateStats::from_samples(&pages_samples);
    // Wall-clock throughput is informational only: it varies with the
    // host machine and is never gated. The gated metrics are all
    // virtual-time quantities.
    let wall = WallSection {
        wall_ms: wall_ms.median,
        pages_per_wall_sec: pages_per_wall_sec.median,
        jobs: jobs as u64,
    };
    eprintln!(
        "wall-clock (informational, not gated): median {:.1} ms (MAD {:.2}, \
         95% CI [{:.1}, {:.1}]) over {reps_done} rep(s), \
         {:.0} simulated pages / wall second, --jobs {jobs}",
        wall_ms.median, wall_ms.mad, wall_ms.ci95_lo, wall_ms.ci95_hi, pages_per_wall_sec.median,
    );
    if reps_done > 1 {
        eprintln!("virtual metrics bit-identical across {reps_done} reps: yes");
    }
    if let Some(ps) = &ss.push {
        eprintln!(
            "push delivery (informational, not gated): {:.3} fixes/page \
             ({} drivers, {} attaches, {} pages delivered, {} catch-up pages)",
            ps.fixes_per_page(),
            ps.drivers,
            ps.attaches,
            ps.pages_delivered,
            ps.catchup_pages,
        );
    }
    Ok(SmokeRuns {
        base,
        ss,
        wall,
        wall_stats: WallStats {
            reps: reps_done as u64,
            jobs: jobs as u64,
            wall_ms,
            pages_per_wall_sec,
        },
    })
}

const USAGE: &str = "\
bench_gate — deterministic perf-regression gate

USAGE:
  bench_gate --gate BASELINE.json            compare against a committed
                                             baseline; exit 1 on regression
  bench_gate --write-baseline BASELINE.json  run the smoke workload and
                                             (re)write the baseline, stamped
                                             with git SHA / date / jobs
                                             provenance (informational)

OPTIONS:
  --jobs N       worker threads for the base/scan-sharing pair (default 1);
                 reports are bit-identical for any N, only wall time changes
  --reps N       repeat the smoke pair N times (default 1): virtual metrics
                 are asserted bit-identical across reps, wall time is
                 summarized as median/MAD with a seeded-bootstrap 95% CI
  --history FILE append this run to an append-only JSONL ledger (git SHA,
                 virtual metrics, replicated wall stats) and check the new
                 wall median against the pooled CI of the trailing ledger
                 window (informational trend check)
  --trend-window K
                 prior ledger entries pooled by the trend check (default 5)
  --trend-gate   exit 1 when the trend check flags the new wall median
                 (off by default: wall time is host noise, so the flag is
                 informational until a deployment opts in)
  --faults FILE  apply a FaultsConfig JSON (seeded fault plan + retry
                 policy) to both smoke runs; canned plans live in
                 results/fault_plans/. An empty plan must leave every
                 gated metric at 0.00% delta
  --report-out FILE
                 also save the scan-sharing leg's RunReport as compact
                 JSON — byte-identical across machines, so CI can cmp it
                 against the committed report artifact
  --delivery pull|push
                 delivery mode of the scan-sharing leg (default pull).
                 A push-mode run gates against its own committed baseline
                 (results/baseline_smoke_push.json), tags its ledger entry
                 so trends stay per-mode, and prints the group drivers'
                 fixes-per-page summary (informational, not gated)
";

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_usize(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .map_err(|e| format!("invalid {name} value: {e}")),
    }
}

/// Everything parsed from the command line.
struct Options {
    jobs: usize,
    reps: usize,
    faults: FaultsConfig,
    faults_path: Option<String>,
    report_out: Option<String>,
    history: Option<String>,
    trend_window: usize,
    trend_gate: bool,
    delivery: DeliveryMode,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = flag_value(&args, "--gate");
    let write = flag_value(&args, "--write-baseline");
    let (jobs, reps, trend_window) = match (
        parse_usize(&args, "--jobs", 1),
        parse_usize(&args, "--reps", 1),
        parse_usize(&args, "--trend-window", stats::DEFAULT_WINDOW),
    ) {
        (Ok(j), Ok(r), Ok(w)) => (j, r.max(1), w),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let faults_path = flag_value(&args, "--faults");
    let faults = match &faults_path {
        None => FaultsConfig::default(),
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            match serde_json::from_str(&text) {
                Ok(cfg) => cfg,
                Err(e) => {
                    eprintln!("invalid fault plan {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
    };
    let delivery = match flag_value(&args, "--delivery") {
        None => DeliveryMode::Pull,
        Some(v) => match v.parse() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    };
    let opts = Options {
        jobs,
        reps,
        faults,
        faults_path,
        report_out: flag_value(&args, "--report-out"),
        history: flag_value(&args, "--history"),
        trend_window,
        trend_gate: args.iter().any(|a| a == "--trend-gate"),
        delivery,
    };
    let code = match (gate, write) {
        (Some(path), None) => run_gate(&path, &opts),
        (None, Some(path)) => write_baseline(&path, &opts),
        _ => {
            eprint!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Save the scan-sharing leg's report as compact JSON (the same bytes
/// `serde_json::to_string` produces everywhere — the artifact CI diffs).
fn save_report_out(path: &str, ss: &RunReport) -> Result<(), String> {
    let json = serde_json::to_string(ss).map_err(|e| format!("cannot serialize report: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("scan-sharing report saved to {path}");
    Ok(())
}

/// Append this run to the ledger and run the trailing-window trend
/// check against the entries that preceded it. Returns whether the
/// check flagged the new wall median (always `false` when the ledger
/// is too short to pool a window).
fn record_and_check_history(runs: &SmokeRuns, opts: &Options) -> Result<bool, String> {
    let Some(path) = &opts.history else {
        return Ok(false);
    };
    // Prior entries first: the check compares against the past, not
    // against a window that already contains the new measurement.
    let prior = if std::path::Path::new(path).exists() {
        history::load(path)?
    } else {
        Vec::new()
    };
    let entry = HistoryEntry {
        faults: opts.faults_path.clone(),
        wall: Some(runs.wall_stats.clone()),
        ..HistoryEntry::of_pair("bench_gate", &runs.base, &runs.ss)
    };
    history::append(path, &entry)?;
    eprintln!(
        "history entry appended to {path} ({} entries total)",
        prior.len() + 1
    );
    let prior_medians: Vec<f64> = prior
        .iter()
        .filter_map(|e| e.wall.as_ref().map(|w| w.wall_ms.median))
        .collect();
    let observed = runs.wall_stats.wall_ms.median;
    match stats::change_point(
        &prior_medians,
        observed,
        opts.trend_window,
        stats::DEFAULT_SEED,
    ) {
        None => {
            eprintln!(
                "trend check: skipped ({} prior wall sample(s), need {})",
                prior_medians.len(),
                stats::MIN_WINDOW
            );
            Ok(false)
        }
        Some(cp) => {
            let verdict = if cp.flagged { "FLAGGED" } else { "ok" };
            eprintln!(
                "trend check ({}): wall median {:.1} ms vs pooled 95% CI \
                 [{:.1}, {:.1}] over last {} entries — {verdict}",
                if opts.trend_gate {
                    "gated"
                } else {
                    "informational"
                },
                cp.observed,
                cp.pooled.lo,
                cp.pooled.hi,
                cp.window,
            );
            Ok(cp.flagged)
        }
    }
}

fn write_baseline(path: &str, opts: &Options) -> i32 {
    let cfg = smoke_config();
    let runs = match run_smoke_pair(opts.jobs, &opts.faults, opts.reps, opts.delivery) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: {e}");
            return 1;
        }
    };
    if let Some(out) = &opts.report_out {
        if let Err(e) = save_report_out(out, &runs.ss) {
            eprintln!("{e}");
            return 2;
        }
    }
    let baseline = GateBaseline {
        description: smoke_description(&cfg, opts.delivery),
        metrics: collect_metrics(&runs.base, &runs.ss),
        wall: Some(runs.wall.clone()),
        provenance: Some(Provenance {
            git_sha: history::git_sha(),
            recorded_at: history::utc_now_iso(),
            jobs: opts.jobs as u64,
        }),
    };
    let json = match serde_json::to_string_pretty(&baseline) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot serialize baseline: {e}");
            return 2;
        }
    };
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write {path}: {e}");
        return 2;
    }
    println!("baseline written to {path}:");
    for m in &baseline.metrics {
        println!(
            "  {:<20} {:>14.2}  (tol {:.1}%)",
            m.name, m.value, m.tolerance_pct
        );
    }
    if let Some(p) = &baseline.provenance {
        println!(
            "  provenance: {} at {} (--jobs {}) [informational, never gated]",
            p.git_sha, p.recorded_at, p.jobs
        );
    }
    match record_and_check_history(&runs, opts) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

fn run_gate(path: &str, opts: &Options) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let baseline: GateBaseline = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("invalid baseline {path}: {e}");
            return 2;
        }
    };
    let runs = match run_smoke_pair(opts.jobs, &opts.faults, opts.reps, opts.delivery) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: {e}");
            return 1;
        }
    };
    if let Some(out) = &opts.report_out {
        if let Err(e) = save_report_out(out, &runs.ss) {
            eprintln!("{e}");
            return 2;
        }
    }
    let current = collect_metrics(&runs.base, &runs.ss);
    let diffs = compare(&baseline, &current);
    print!("{}", render_diffs(&baseline.description, &diffs));
    // The committed wall numbers are context, not a gate: name them next
    // to what this host just measured so drifts are easy to eyeball.
    if let Some(b) = &baseline.wall {
        eprintln!(
            "wall vs baseline (informational, not gated): {:.1} ms now vs {:.1} ms \
             committed ({:+.1}% — host-dependent), --jobs {} vs {}",
            runs.wall.wall_ms,
            b.wall_ms,
            (runs.wall.wall_ms - b.wall_ms) / b.wall_ms.max(1e-9) * 100.0,
            runs.wall.jobs,
            b.jobs,
        );
    }
    let trend_flagged = match record_and_check_history(&runs, opts) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if has_regression(&diffs) || (opts.trend_gate && trend_flagged) {
        1
    } else {
        0
    }
}
