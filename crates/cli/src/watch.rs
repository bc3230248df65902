//! Live ASCII dashboard over a running workload.
//!
//! `scanshare watch` executes a spec with a [`scanshare_engine::RunHooks`]
//! observer attached. The engine calls it, on the run's own thread, with
//! a [`WatchFrame`] at every metrics-sample tick and once at the
//! makespan, and the observer draws the dashboard: group topology
//! (trailer → leader), per-scan throttle state against the fairness-cap
//! budget, a pool-residency heatmap by release priority, and the tail of
//! the decision-provenance log, which it assembles from the records each
//! frame carries. Each frame is drawn at most once, in order; a frame
//! that arrives less than the tick's wall time after the last draw is
//! skipped, and the closing frame is always drawn. At a zero tick every
//! frame is drawn, so the output depends on the spec alone. The
//! simulation itself runs on virtual time, so watching costs nothing in
//! measured results — the same spec produces the same report with or
//! without the dashboard.

use scanshare::decision::{describe, role_name};
use scanshare::DecisionRecord;
use scanshare_engine::{
    run_workload_hooked, Database, RunHooks, RunReport, WatchFrame, WorkloadSpec,
};
use scanshare_storage::PagePriority;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Columns in the residency heatmap and slowdown bars.
const STRIP_WIDTH: usize = 64;

/// How the dashboard runs: `scanshare watch`'s flags, whose defaults its
/// handler supplies.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// Wall-clock milliseconds that must pass after a draw before the
    /// next frame is drawn; frames that arrive sooner are skipped.
    pub tick_ms: u64,
    /// Clear the terminal between frames (ANSI); off for piped output.
    pub clear: bool,
    /// Decision-tail length.
    pub tail: usize,
}

fn bar(frac: f64, width: usize) -> String {
    let frac = frac.clamp(0.0, 1.0);
    let filled = (frac * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// The pool-residency heatmap: resident pages bucketed over the resident
/// id range into a fixed-width strip, each column showing the highest
/// release priority present (`#` high, `=` normal, `.` low, space empty).
fn residency_strip(frame: &WatchFrame, width: usize) -> String {
    if frame.resident.is_empty() {
        return " ".repeat(width);
    }
    // resident_pages() is sorted by id; columns keep that order.
    let mut cols: Vec<Option<PagePriority>> = vec![None; width];
    for (i, p) in frame.resident.iter().enumerate() {
        let idx = (i * width / frame.resident.len()).min(width - 1);
        cols[idx] = Some(match cols[idx] {
            Some(prev) if prev >= p.priority => prev,
            _ => p.priority,
        });
    }
    cols.iter()
        .map(|c| match c {
            None => ' ',
            Some(PagePriority::High) => '#',
            Some(PagePriority::Normal) => '=',
            Some(PagePriority::Low) => '.',
        })
        .collect()
}

/// Render one dashboard frame as plain text (no ANSI).
pub fn render_dashboard(frame: &WatchFrame, tail: &[DecisionRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scanshare watch — t={:.3}s  queries done {}  [{}]",
        frame.at.as_micros() as f64 / 1e6,
        frame.queries_done,
        if frame.finished {
            "finished"
        } else {
            "running"
        }
    );
    let _ = writeln!(
        out,
        "pool  {:>5}/{} pages resident  hit {:>5.1}%  evictions {}  reprioritizations {}",
        frame.resident.len(),
        frame.pool_capacity,
        frame.pool.hit_ratio() * 100.0,
        frame.pool.evictions,
        frame.pool.reprioritizations,
    );
    let _ = writeln!(
        out,
        "      |{}|  (# high  = normal  . low)",
        residency_strip(frame, STRIP_WIDTH)
    );
    let _ = writeln!(
        out,
        "disk  reads {}  seeks {}  head travel {} pages",
        frame.disk.pages_read, frame.disk.seeks, frame.disk.seek_distance_pages,
    );
    match &frame.probe {
        None => {
            let _ = writeln!(out, "mode  base (no sharing manager)");
        }
        Some(probe) => {
            let _ = writeln!(
                out,
                "groups ({} formed, {} shared)",
                probe.groups.len(),
                probe.shared_groups()
            );
            for g in &probe.groups {
                let members: Vec<String> = g.members.iter().map(|m| m.0.to_string()).collect();
                let _ = writeln!(
                    out,
                    "  group {}: {} scan{} [{}] extent {} pages",
                    g.anchor.0,
                    g.members.len(),
                    if g.members.len() == 1 { "" } else { "s" },
                    members.join(" -> "),
                    g.extent
                );
            }
            if !probe.scans.is_empty() {
                let _ = writeln!(
                    out,
                    "  {:<5} {:<10} {:>10} {:>10}  {:<24} state",
                    "scan", "role", "remaining", "pages/s", "slowdown vs cap"
                );
            }
            for s in &probe.scans {
                let _ = writeln!(
                    out,
                    "  {:<5} {:<10} {:>10} {:>10.1}  |{}| {:>4.0}%  {}",
                    s.id.0,
                    role_name(s.role),
                    s.remaining_pages,
                    s.speed,
                    bar(s.slowdown_frac, 16),
                    s.slowdown_frac * 100.0,
                    if s.throttle_exempt { "cap-exempt" } else { "" },
                );
            }
        }
    }
    if !tail.is_empty() {
        let _ = writeln!(out, "decisions (last {})", tail.len());
        for r in tail {
            let _ = writeln!(
                out,
                "  {:>9.3}s  {}",
                r.at.as_micros() as f64 / 1e6,
                describe(&r.event)
            );
        }
    }
    out
}

/// Run `spec` with a live dashboard written to `out`. Returns the same
/// [`RunReport`] a plain `run` would have produced.
pub fn run_watch(
    db: &Database,
    spec: &WorkloadSpec,
    opts: &WatchOptions,
    out: &mut dyn std::io::Write,
) -> Result<RunReport, String> {
    let tick = Duration::from_millis(opts.tick_ms);
    let mut last_draw: Option<Instant> = None;
    let mut tail: Vec<DecisionRecord> = Vec::new();
    let draw = move |frame: &WatchFrame| {
        tail.extend(frame.decisions.iter().cloned());
        tail.drain(..tail.len().saturating_sub(opts.tail));
        let due = last_draw.is_none_or(|t| t.elapsed() >= tick);
        if !(due || frame.finished) {
            return;
        }
        let text = render_dashboard(frame, &tail);
        if opts.clear {
            let _ = write!(out, "\x1b[2J\x1b[H{text}");
        } else {
            let _ = writeln!(out, "{text}");
        }
        let _ = out.flush();
        last_draw = Some(Instant::now());
    };
    let hooks = RunHooks {
        observer: Some(Box::new(draw)),
        ..RunHooks::default()
    };
    run_workload_hooked(db, spec, hooks).map_err(|e| format!("run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare::anchor::AnchorId;
    use scanshare::{DecisionEvent, ManagerProbe, ScanId};
    use scanshare_storage::{
        DiskStats, PageId, PagePriority, PoolStats, ResidentPage, SimDuration, SimTime,
    };

    fn frame() -> WatchFrame {
        let pool = PoolStats {
            logical_reads: 100,
            hits: 80,
            reprioritizations: 3,
            ..PoolStats::default()
        };
        WatchFrame {
            at: SimTime::from_millis(1500),
            probe: Some(ManagerProbe::default()),
            pool,
            pool_capacity: 128,
            resident: vec![
                ResidentPage {
                    id: PageId::new(scanshare_storage::FileId(0), 1),
                    priority: PagePriority::High,
                    pinned: false,
                },
                ResidentPage {
                    id: PageId::new(scanshare_storage::FileId(0), 2),
                    priority: PagePriority::Low,
                    pinned: true,
                },
            ],
            disk: DiskStats::default(),
            queries_done: 2,
            decisions: Vec::new(),
            finished: false,
        }
    }

    #[test]
    fn dashboard_renders_pool_groups_and_tail() {
        let mut f = frame();
        let probe = f.probe.as_mut().unwrap();
        probe.groups.push(scanshare::GroupInfo {
            anchor: AnchorId(4),
            members: vec![ScanId(2), ScanId(0)],
            extent: 48,
        });
        probe.scans.push(scanshare::ScanProbe {
            id: ScanId(0),
            role: scanshare::Role::Leader,
            remaining_pages: 900,
            speed: 123.4,
            accumulated_slowdown: SimDuration::from_millis(100),
            slowdown_budget: SimDuration::from_millis(200),
            slowdown_frac: 0.5,
            throttle_exempt: false,
        });
        let tail = vec![DecisionRecord {
            at: SimTime::from_millis(1400),
            event: DecisionEvent::Unthrottle {
                scan: ScanId(0),
                group: AnchorId(4),
                distance_pages: 10,
                threshold_pages: 32,
            },
        }];
        let text = render_dashboard(&f, &tail);
        assert!(text.contains("t=1.500s"), "got: {text}");
        assert!(text.contains("2/128 pages resident"));
        assert!(text.contains("hit  80.0%"));
        assert!(text.contains("reprioritizations 3"));
        assert!(text.contains("group 4: 2 scans [2 -> 0] extent 48 pages"));
        assert!(text.contains("leader"));
        assert!(text.contains("50%"));
        assert!(text.contains("decisions (last 1)"));
        assert!(text.contains("unthrottled"));
        assert!(text.contains("[running]"));
        let last = WatchFrame {
            finished: true,
            ..f
        };
        assert!(render_dashboard(&last, &tail).contains("[finished]"));
    }

    #[test]
    fn base_mode_frame_renders_without_probe() {
        let mut f = frame();
        f.probe = None;
        let text = render_dashboard(&f, &[]);
        assert!(text.contains("base (no sharing manager)"));
        assert!(!text.contains("decisions (last"));
    }

    #[test]
    fn residency_strip_orders_and_marks_priorities() {
        let f = frame();
        let strip = residency_strip(&f, 8);
        assert_eq!(strip.len(), 8);
        assert!(strip.contains('#'), "high-priority page missing: {strip:?}");
        assert!(strip.contains('.'), "low-priority page missing: {strip:?}");
        let empty = WatchFrame {
            resident: vec![],
            ..f
        };
        assert_eq!(residency_strip(&empty, 8), "        ");
    }

    #[test]
    fn bar_clamps_and_fills() {
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 4), "####");
    }

    /// The tiny TPC-H database and a two-stream sharing workload over it.
    fn tiny() -> (Database, WorkloadSpec) {
        use scanshare::SharingConfig;
        use scanshare_engine::SharingMode;
        use scanshare_tpch::{generate, throughput_workload, TpchConfig};
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        let spec = throughput_workload(
            &db,
            2,
            tpch.months as i64,
            tpch.seed,
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        (db, spec)
    }

    /// `watch`'s output and report, and the output split into dashboards.
    fn watch(db: &Database, spec: &WorkloadSpec, tick_ms: u64) -> (String, RunReport) {
        let opts = WatchOptions {
            tick_ms,
            clear: false,
            tail: usize::MAX,
        };
        let mut buf = Vec::new();
        let r = run_watch(db, spec, &opts, &mut buf).unwrap();
        (String::from_utf8(buf).unwrap(), r)
    }

    fn dashboards(text: &str) -> Vec<&str> {
        text.split("scanshare watch — ").skip(1).collect()
    }

    #[test]
    fn a_zero_tick_draws_every_frame_once_and_repeats_byte_for_byte() {
        let (db, spec) = tiny();
        let (text, r) = watch(&db, &spec, 0);
        assert_eq!(watch(&db, &spec, 0).0, text);
        let mut frames = 0;
        let hooks = RunHooks {
            observer: Some(Box::new(|_: &WatchFrame| frames += 1)),
            ..RunHooks::default()
        };
        run_workload_hooked(&db, &spec, hooks).unwrap();
        let shown = dashboards(&text);
        assert_eq!(shown.len(), frames);
        let (last, running) = shown.split_last().unwrap();
        assert!(running.iter().all(|d| d.contains("[running]")));
        assert!(last.contains("[finished]"));
        // With an unbounded tail the closing dashboard lists every record
        // the frames carried: the report's log.
        let (_, listed) = last.split_once("decisions (last ").unwrap();
        let listed: Vec<&str> = listed.lines().skip(1).filter(|l| !l.is_empty()).collect();
        let logged: Vec<String> = (r.decisions.iter())
            .map(|d| {
                format!(
                    "  {:>9.3}s  {}",
                    d.at.as_micros() as f64 / 1e6,
                    describe(&d.event)
                )
            })
            .collect();
        assert!(!logged.is_empty());
        assert_eq!(listed, logged);
    }

    #[test]
    fn frames_within_the_tick_are_skipped_but_the_closing_one_is_drawn() {
        let (db, spec) = tiny();
        let (text, r) = watch(&db, &spec, u64::MAX);
        let shown = dashboards(&text);
        assert_eq!(shown.len(), 2, "first and closing frame only: {text}");
        assert!(shown[0].contains("[running]"));
        let end = format!("t={:.3}s", r.makespan.as_micros() as f64 / 1e6);
        assert!(shown[1].starts_with(&end) && shown[1].contains("[finished]"));
    }

    #[test]
    fn watch_runs_a_tiny_spec_and_reports_like_a_plain_run() {
        let (db, spec) = tiny();
        let mut buf = Vec::new();
        let opts = WatchOptions {
            tick_ms: 1,
            clear: false,
            tail: 4,
        };
        let r = run_watch(&db, &spec, &opts, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("scanshare watch"), "got: {text}");
        assert!(text.contains("[finished]"));
        assert!(text.contains("pages resident"));
        // Watching changes nothing measured: virtual time, and every
        // byte of the report.
        let plain = scanshare_engine::run_workload(&db, &spec).unwrap();
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );
        assert!(!r.decisions.is_empty());
    }
}
