//! The two measurement phases of a workload.
//!
//! * [`end_to_end`] — tracing off: set-up time, then timed reps of
//!   exactly one `run_workload(&db, &spec)` call each, interleaved in
//!   rounds over all selected workloads, then the untimed verification
//!   run in `SharingMode::Base`.
//! * [`layers`] — the traced round: per-layer counts, differential
//!   shares from whole runs through public config, one profiled run, the
//!   isolated drives, and their reconciliation with `wall_s`.
//!
//! Load model: closed loop in virtual time — each stream issues its next
//! query when its previous one completes — one process, one thread, runs
//! strictly sequential. The buffer pool starts empty on every run (the
//! paper's runs start cold); host caches are warmed by one discarded run.

use std::time::{Duration, Instant};

use scanshare::SpanProfiler;
use scanshare_bench::stats::median;
use scanshare_engine::{
    run_workload, run_workload_hooked, Access, Database, RunHooks, RunReport, ScanSpec,
    SharingMode, WorkloadSpec,
};
use scanshare_relstore::HeapPage;
use scanshare_storage::{PageId, ReplacementPolicy, SimDuration};

use crate::layers::{self, Shape, LIVE_SCANS};
use crate::metrics::{self, get, m, Metric};
use crate::reference::{self, Reference};
use crate::trace::Recorder;
use crate::verify;
use crate::workloads::{Built, Workload};

/// Builds whose median is `setup_s`.
const SETUP_BUILDS: usize = 7;
/// Fewest timed reps behind `wall_s`.
const MIN_REPS: usize = 5;
/// Fewest rounds behind a differential share.
const MIN_SHARE_ROUNDS: usize = 3;

/// What the command line selected.
pub struct Options {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Host seconds of timed reps per workload.
    pub seconds: f64,
    /// Exact number of timed rounds, overriding `seconds`.
    pub reps: Option<usize>,
    /// Tiny inputs, one rep, tiny drives.
    pub quick: bool,
}

/// A workload's result; each phase adds its metrics.
pub struct Outcome {
    /// Queries the spec asks for.
    pub attempted: u64,
    /// Queries missing or answering differently from the base run.
    pub failed: u64,
    /// The metrics measured so far.
    pub metrics: Vec<Metric>,
}

/// A workload with its inputs resident.
pub struct Session<'w> {
    /// The workload.
    pub workload: &'w Workload,
    built: Built,
    /// The same spec in `SharingMode::Base` — the verification run.
    base_spec: WorkloadSpec,
    setup_s: f64,
    gen_s: f64,
}

fn fatal(msg: String) -> ! {
    eprintln!("benchmark failed: {msg}");
    std::process::exit(1);
}

impl<'w> Session<'w> {
    /// Build the workload's inputs [`SETUP_BUILDS`] times, one at a time,
    /// and keep the last.
    pub fn set_up(workload: &'w Workload, opts: &Options) -> Self {
        let builds = if opts.quick { 1 } else { SETUP_BUILDS };
        let off = Recorder::off();
        let (mut setup, mut gen, mut built) = (Vec::new(), Vec::new(), None);
        for _ in 0..builds {
            drop(built.take());
            let t = Instant::now();
            let b = workload.build(opts.seed, opts.quick, &off);
            setup.push(t.elapsed().as_secs_f64());
            gen.push(b.gen_s);
            built = Some(b);
        }
        let built = built.expect("at least one build");
        let base_spec = WorkloadSpec {
            mode: SharingMode::Base,
            ..built.spec.clone()
        };
        Session {
            workload,
            built,
            base_spec,
            setup_s: median(&setup),
            gen_s: median(&gen),
        }
    }

    /// The workload's result before any phase ran.
    pub fn outcome(&self) -> Outcome {
        Outcome {
            attempted: verify::attempted(&self.built.spec),
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Check `run` against `base` and add a phase's metrics.
    fn record(&self, out: &mut Outcome, run: &RunReport, base: &RunReport, metrics: Vec<Metric>) {
        out.failed = out.failed.max(verify::failed(&self.built.spec, run, base));
        out.metrics.extend(metrics);
    }

    /// One run; the timed region is exactly the `run_workload` call.
    fn timed(&self, spec: &WorkloadSpec) -> (f64, RunReport) {
        let t = Instant::now();
        let report = run_workload(&self.built.db, spec);
        let wall = t.elapsed().as_secs_f64();
        match report {
            Ok(r) => (wall, r),
            Err(e) => fatal(format!("{}: run_workload: {e}", self.workload.name)),
        }
    }

    /// Fail loudly when two runs of one spec disagree on any virtual-clock
    /// or count metric: a flaky virtual clock invalidates every comparison.
    fn assert_same(&self, first: &RunReport, again: &RunReport) {
        let (a, b) = (metrics::fingerprint(first), metrics::fingerprint(again));
        if let Some(((name, x), (_, y))) = a.iter().zip(&b).find(|(x, y)| x != y) {
            fatal(format!(
                "{}: virtual clock is not deterministic: {name} = {} then {}",
                self.workload.name,
                f64::from_bits(*x),
                f64::from_bits(*y)
            ));
        }
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or_else(|| fatal("no VmHWM in /proc/self/status".into())) / 1024.0
}

/// Body of the `--rss-probe` child: build the workload, run it once with
/// the database resident, print the process's peak RSS.
pub fn rss_probe(workload: &Workload, opts: &Options) {
    let b = workload.build(opts.seed, opts.quick, &Recorder::off());
    if let Err(e) = run_workload(&b.db, &b.spec) {
        fatal(format!("{}: run_workload: {e}", workload.name));
    }
    println!("{}", peak_rss_mb());
}

/// Peak RSS of a fresh process that builds the workload and runs it
/// once, so neither other workloads nor the reps of this one count.
fn peak_rss_of_child(workload: &Workload, opts: &Options) -> f64 {
    let exe = std::env::current_exe().unwrap_or_else(|e| fatal(format!("current_exe: {e}")));
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--rss-probe",
        workload.name,
        "--seed",
        &opts.seed.to_string(),
    ]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| fatal(format!("spawn rss probe: {e}")));
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .unwrap_or_else(|_| fatal(format!("{}: rss probe printed no number", workload.name)))
}

/// Quartiles of a sample, by linear interpolation between order
/// statistics.
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    let at = |q: f64| {
        let pos = q * (s.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        s[lo] + frac * (s[(lo + 1).min(s.len() - 1)] - s[lo])
    };
    (at(0.25), at(0.75))
}

/// The timed reps of one workload.
#[derive(Default)]
struct Reps {
    /// Host seconds of each rep's `run_workload` call.
    walls: Vec<f64>,
    /// Each rep's host speed: mean time of the reference kernel sampled
    /// right before and right after it, over the kernel's nominal time.
    speeds: Vec<f64>,
    /// The first rep's report; later reps must repeat it exactly.
    first: Option<RunReport>,
}

/// End-to-end phase over all sessions, tracing off.
pub fn end_to_end(sessions: &[Session<'_>], opts: &Options, out: &mut [Outcome]) {
    let mut reference = Reference::new();
    reference.sample();
    if !opts.quick {
        for s in sessions {
            s.timed(&s.built.spec);
        }
    }
    // Round r runs every workload once, so a slow phase of the shared
    // host hits all workloads alike.
    let mut reps: Vec<Reps> = sessions.iter().map(|_| Reps::default()).collect();
    loop {
        let mut ran = false;
        for (s, r) in sessions.iter().zip(&mut reps) {
            let enough = match (opts.quick, opts.reps) {
                (true, _) => !r.walls.is_empty(),
                (_, Some(n)) => r.walls.len() >= n.max(MIN_REPS),
                _ => r.walls.len() >= MIN_REPS && r.walls.iter().sum::<f64>() >= opts.seconds,
            };
            if enough {
                continue;
            }
            ran = true;
            let before = reference.sample();
            let (wall, report) = s.timed(&s.built.spec);
            let after = reference.sample();
            r.walls.push(wall);
            r.speeds.push((before + after) / 2.0 / reference::NOMINAL_S);
            match &r.first {
                Some(first) => s.assert_same(first, &report),
                None => r.first = Some(report),
            }
        }
        if !ran {
            break;
        }
    }

    for ((s, r), out) in sessions.iter().zip(reps).zip(out) {
        let report = r.first.expect("at least one rep");
        let (_, base) = s.timed(&s.base_spec);
        // Seconds at the reference speed: a slow phase of the host
        // slows a rep and the reference kernel around it alike.
        let scaled: Vec<f64> = r.walls.iter().zip(&r.speeds).map(|(w, v)| w / v).collect();
        let (raw, speed, wall_s) = (median(&r.walls), median(&r.speeds), median(&scaled));
        let (q1, q3) = quartiles(&r.walls);
        let min = r.walls.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "# {} reps: n {} raw host s min {min:.4} q1 {q1:.4} median {raw:.4} q3 {q3:.4}; \
             host at {speed:.3}x the reference time, wall_s {wall_s:.4}; \
             virt_query_p50_s/p95_s over {} queries",
            s.workload.name,
            r.walls.len(),
            report.queries.len()
        );
        let mut metrics = vec![
            m("setup_s", s.setup_s, "s"),
            m("wall_s", wall_s, "s"),
            m(
                "sim_pages_per_wall_s",
                metrics::visits(&report) as f64 / wall_s,
                "1/s",
            ),
            m("peak_rss_mb", peak_rss_of_child(s.workload, opts), "MB"),
        ];
        metrics.extend(metrics::virt(&report, base.makespan.as_secs_f64()));
        s.record(out, &report, &base, metrics);
    }
}

/// Row work of a scan: which `engine.scan_exec.row_ns.*` drive prices
/// its rows.
fn row_class(scan: &ScanSpec) -> &'static str {
    if !scan.agg.group_by.is_empty() {
        "q1"
    } else if scan.pred != scanshare_engine::Pred::True {
        "q6"
    } else if !scan.agg.sum_cols.is_empty() {
        "sum"
    } else {
        "count"
    }
}

/// Rows every scan of the spec evaluates, per row-work class. Exact and
/// the same in every sharing mode: a scan sees each row of its range
/// exactly once, wherever it starts.
fn rows_by_class(db: &Database, spec: &WorkloadSpec) -> Vec<(&'static str, u64)> {
    let store = db.store();
    let mut block_rows: std::collections::HashMap<&str, Vec<u64>> = Default::default();
    let mut rows = vec![("count", 0u64), ("sum", 0), ("q6", 0), ("q1", 0)];
    for scan in spec
        .streams
        .iter()
        .flat_map(|s| &s.queries)
        .flat_map(|q| &q.scans)
    {
        let table = db.table(&scan.table).expect("spec names existing tables");
        let n = match scan.access {
            Access::FullTable => table.num_rows(),
            Access::IndexRange { lo, hi } => {
                let mdc = table.as_mdc().expect("index ranges scan MDC tables");
                let per_block = block_rows.entry(scan.table.as_str()).or_insert_with(|| {
                    (0..mdc.num_blocks)
                        .map(|b| {
                            mdc.block_page_range(b)
                                .map(|p| {
                                    let buf = store
                                        .read_page(PageId::new(mdc.file, p))
                                        .expect("block page exists");
                                    HeapPage::new(&buf).expect("valid heap page").num_rows() as u64
                                })
                                .sum()
                        })
                        .collect()
                });
                mdc.blocks_for_range(store, lo, hi)
                    .expect("block index readable")
                    .iter()
                    .map(|e| per_block[e.payload as usize])
                    .sum()
            }
            Access::RidRange { lo, hi } => table
                .rid_index
                .as_ref()
                .expect("RID ranges need a RID index")
                .range(store, lo, hi)
                .expect("RID index readable")
                .len() as u64,
        };
        let class = row_class(scan);
        let slot = rows.iter_mut().find(|(c, _)| *c == class).expect("class");
        slot.1 += n * scan.repeat.max(1) as u64;
    }
    rows
}

/// Wall-exclusive seconds of a phase of a profiled run (0 when the run
/// never entered it).
fn phase_excl_s(summary: &scanshare::ProfileSummary, name: &str) -> f64 {
    summary
        .wall
        .as_ref()
        .and_then(|w| w.phases.iter().find(|p| p.name == name))
        .map_or(0.0, |p| p.excl_ns as f64 / 1e9)
}

/// The reconciliation's cost model: `(component, count, ns per op)` of
/// everything a drive prices in one run of the workload.
fn cost_model(s: &Session<'_>, counts: &[Metric], drives: &[Metric]) -> Vec<(String, f64, f64)> {
    let spec = &s.built.spec;
    let live = LIVE_SCANS
        .into_iter()
        .min_by_key(|l| l.abs_diff(spec.streams.len()))
        .expect("non-empty");
    let hit_ns = get(drives, "engine.exec.fetch_extent_hit_ns");
    let mut parts: Vec<(String, f64, f64)> = rows_by_class(&s.built.db, spec)
        .into_iter()
        .map(|(class, rows)| {
            let ns = get(drives, &format!("engine.scan_exec.row_ns.{class}"));
            (format!("engine.scan_exec rows ({class})"), rows as f64, ns)
        })
        .collect();
    parts.push((
        "engine.exec miss extra (evict + store + disk)".into(),
        get(counts, "storage.pool.misses"),
        (get(drives, "engine.exec.fetch_extent_miss_ns") - hit_ns).max(0.0),
    ));
    parts.push((
        "storage.pool reprioritize extra".into(),
        get(counts, "storage.pool.reprioritizations"),
        (get(drives, "storage.pool.reprioritize_ns") - get(drives, "storage.pool.hit_ns")).max(0.0),
    ));
    if matches!(spec.mode, SharingMode::ScanSharing(_)) {
        // One location update per extent fixed, one start + end per scan.
        parts.push((
            format!("core.manager update_location (L{live})"),
            (get(counts, "storage.pool.fixes") / spec.engine.extent_pages as f64).ceil(),
            get(drives, &format!("core.manager.update_location_ns.L{live}")),
        ));
        parts.push((
            format!("core.manager start+end scan (L{live})"),
            get(counts, "core.manager.scans_started"),
            get(drives, &format!("core.manager.start_end_scan_ns.L{live}")),
        ));
    }
    parts
}

/// The traced round of one workload.
pub fn layers(
    s: &Session<'_>,
    opts: &Options,
    rec: &mut Recorder,
    aux: &Database,
    outcome: &mut Outcome,
) {
    let name = s.workload.name;
    let root = rec.begin(&format!("workload.{name}"));
    // Set-up spans: one extra, discarded build.
    drop(s.workload.build(opts.seed, opts.quick, rec));
    if !opts.quick {
        s.timed(&s.built.spec);
    }

    // Differential shares from whole runs through public config only,
    // interleaved so host noise hits all three variants alike.
    let no_sampler = WorkloadSpec {
        engine: scanshare_engine::EngineConfig {
            metrics_interval: SimDuration::ZERO,
            ..s.built.spec.engine.clone()
        },
        ..s.built.spec.clone()
    };
    let (mut wall, mut wall_base, mut wall_quiet) = (Vec::new(), Vec::new(), Vec::new());
    let (mut report, mut base) = (None, None);
    let rounds = match (opts.quick, opts.reps) {
        (true, _) => 1,
        (_, Some(n)) => n.max(MIN_SHARE_ROUNDS),
        _ => usize::MAX,
    };
    let started = Instant::now();
    while wall.len() < rounds
        && (wall.len() < MIN_SHARE_ROUNDS.min(rounds)
            || started.elapsed().as_secs_f64() < opts.seconds)
    {
        let span = rec.begin("engine.run_workload");
        let (w, r) = s.timed(&s.built.spec);
        rec.end(span);
        wall.push(w);
        match &report {
            Some(first) => s.assert_same(first, &r),
            None => report = Some(r),
        }
        let span = rec.begin("verify.base_run");
        let (w, r) = s.timed(&s.base_spec);
        rec.end(span);
        wall_base.push(w);
        base.get_or_insert(r);
        let span = rec.begin("engine.run_workload.no_sampler");
        wall_quiet.push(s.timed(&no_sampler).0);
        rec.end(span);
    }
    let (report, base) = (report.expect("one round ran"), base.expect("one round ran"));
    let wall_raw = median(&wall);

    // One profiled run through the existing public hook.
    let profiler = SpanProfiler::new(1 << 22);
    let hooks = RunHooks {
        profiler: Some(profiler.clone()),
        ..RunHooks::default()
    };
    let span = rec.begin("engine.run_workload.profiled");
    let t = Instant::now();
    if let Err(e) = run_workload_hooked(&s.built.db, &s.built.spec, hooks) {
        fatal(format!("{name}: profiled run: {e}"));
    }
    let traced_wall_raw = t.elapsed().as_secs_f64();
    rec.end(span);
    let summary = profiler.summary();
    drop(profiler);

    let encode_ms: Vec<f64> = (0..if opts.quick { 1 } else { 3 })
        .map(|_| {
            rec.span("report.encode", || {
                let t = Instant::now();
                let json = serde_json::to_string(&report).expect("report serializes");
                std::hint::black_box(json.len());
                t.elapsed().as_secs_f64() * 1e3
            })
        })
        .collect();

    let shape = Shape {
        pool_pages: s.built.spec.pool_pages,
        policy: match &s.built.spec.mode {
            SharingMode::ScanSharing(cfg) if cfg.enable_priorities => {
                ReplacementPolicy::PriorityLru
            }
            SharingMode::BasePolicy(p) => *p,
            _ => ReplacementPolicy::Lru,
        },
        sample: Duration::from_micros(if opts.quick { 200 } else { 4000 }),
    };
    let drives = layers::run(rec, &shape, aux, opts.quick);

    let counts = metrics::counts(&report);
    let parts = cost_model(s, &counts, &drives);
    let explained_s: f64 = parts.iter().map(|(_, n, ns)| n * ns / 1e9).sum();
    let residual = 1.0 - explained_s / wall_raw;
    let overhead = (wall_raw - median(&wall_base)) / wall_raw;
    let sampler = (wall_raw - median(&wall_quiet)) / wall_raw;
    let phases = [
        ("trace.engine_run_excl_s", "engine.run"),
        ("trace.scan_step_excl_s", "scan.step"),
        ("trace.extent_fetch_excl_s", "extent.fetch"),
        ("trace.cpu_process_excl_s", "cpu.process"),
        ("trace.throttle_wait_excl_s", "throttle.wait"),
    ];

    println!(
        "# {name}: reconciliation against the raw wall {wall_raw:.4} s (median of {})",
        wall.len()
    );
    println!(
        "#   {:<48} {:>12} {:>10} {:>9} {:>6}",
        "component", "count", "ns/op", "s", "share"
    );
    for (what, n, ns) in &parts {
        let secs = n * ns / 1e9;
        println!(
            "#   {what:<48} {n:>12.0} {ns:>10.1} {secs:>9.4} {:>5.1}%",
            100.0 * secs / wall_raw
        );
    }
    println!(
        "#   drives explain {explained_s:.4} s = {:.1}% of it{}",
        100.0 * explained_s / wall_raw,
        if residual > 0.30 {
            "  ** FLAG: under 70 %; the rest is event heap, stream bookkeeping, sampler, push driver **"
        } else {
            ""
        }
    );
    println!(
        "#   profiled partition (wall-exclusive s, profiled wall {traced_wall_raw:.4}, dropped {}): {}",
        summary.dropped,
        phases
            .iter()
            .map(|(_, p)| format!("{p} {:.4}", phase_excl_s(&summary, p)))
            .collect::<Vec<_>>()
            .join("  ")
    );
    println!(
        "#   residual_share {residual:.3}  sharing_overhead_share {overhead:.3}  sampler_share {sampler:.3}"
    );

    let mut out = counts;
    out.extend(drives);
    out.push(m("engine.workload.wall_raw_s", wall_raw, "s"));
    out.push(m(
        "engine.metrics.report_encode_ms",
        median(&encode_ms),
        "ms",
    ));
    out.push(m("tpch.gen.generate_s", s.gen_s, "s"));
    out.push(m("core.sharing_overhead_share", overhead, "ratio"));
    out.push(m("engine.workload.sampler_share", sampler, "ratio"));
    out.push(m("engine.workload.residual_share", residual, "ratio"));
    for (metric, phase) in phases {
        out.push(m(metric, phase_excl_s(&summary, phase), "s"));
    }
    out.push(m(
        "trace.overhead_pct",
        100.0 * (traced_wall_raw - wall_raw) / wall_raw,
        "%",
    ));
    out.push(m(
        "virt_sharing_gain_pct",
        metrics::sharing_gain_pct(&report, base.makespan.as_secs_f64()),
        "%",
    ));
    rec.keep_profile(name, traced_wall_raw, wall_raw, summary);
    rec.end(root);
    s.record(outcome, &report, &base, out);
}
