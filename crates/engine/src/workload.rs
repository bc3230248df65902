//! Multi-stream workload execution.
//!
//! A workload is a set of streams, each an ordered list of queries with a
//! start offset (the papers stagger some starts by 10 s). The driver is a
//! discrete-event loop: at every event one stream advances its current
//! scan by one extent. The entire run is deterministic — two runs of the
//! same spec produce identical reports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use scanshare::anchor::AnchorId;
use scanshare::obs::{CounterSample, GaugeSample, Histogram, SeriesPoint, SeriesSnapshot};
use scanshare::{
    DecisionLog, ManagerProbe, MetricsSnapshot, ScanId, ScanSharingManager, SharingConfig,
    SpanProfiler, Track,
};
use scanshare_storage::{
    BufferPool, DiskStats, IdMap, PoolConfig, PoolStats, ReplacementPolicy, ResidentPage,
    SimDuration, SimTime,
};
use serde::{Deserialize, Serialize};

use crate::cost::EngineConfig;
use crate::db::Database;
use crate::error::{EngineError, EngineResult};
use crate::exec::ExecWorld;
use crate::faults::{FaultSummary, FaultsConfig};
use crate::metrics::{QueryRecord, RunReport};
use crate::push::{ConsumerId, PushEngine};
use crate::query::{Query, QueryResult};
use crate::scan_exec::{ScanExec, ScanMetrics};

/// Whether a run coordinates its scans.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SharingMode {
    /// "Vanilla DB2": no manager, plain LRU pool.
    Base,
    /// No manager, but a different replacement policy (e.g. LRU-2) — the
    /// related-work baselines of the paper's §2.
    BasePolicy(ReplacementPolicy),
    /// The prototype: a scan-sharing manager with this configuration
    /// (its `pool_pages` is overridden with the run's pool size), and a
    /// priority-aware pool when `enable_priorities` is set.
    ScanSharing(SharingConfig),
}

/// One query stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stream {
    /// Queries, run back to back.
    pub queries: Vec<Query>,
    /// When the stream starts relative to the run origin.
    pub start_offset: SimDuration,
}

/// A complete workload specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The streams to run concurrently.
    pub streams: Vec<Stream>,
    /// Buffer pool size in pages (the papers use ~5 % of the database).
    pub pool_pages: usize,
    /// Machine model.
    pub engine: EngineConfig,
    /// Base or scan-sharing.
    pub mode: SharingMode,
    /// Fault injection: storage-layer plan plus engine retry policy.
    /// Defaults to no faults, which leaves the run (and its report
    /// bytes) identical to a spec without this section.
    #[serde(default)]
    pub faults: FaultsConfig,
    /// Service-level objectives checked after the run. Defaults to no
    /// rules, which leaves the run (and its report bytes) identical to
    /// a spec without this section.
    #[serde(default)]
    pub slo: crate::slo::SloConfig,
}

impl WorkloadSpec {
    /// Refuse a spec whose pool, extent or CPU count is zero — or any of
    /// `more`, `(run-spec path, value)` pairs checked beside them —
    /// naming the first such field, and a pool smaller than one extent.
    pub fn check_sizes(&self, more: &[(&'static str, u64)]) -> EngineResult<()> {
        let (pool_pages, extent_pages) = (self.pool_pages as u64, self.engine.extent_pages as u64);
        let own = [
            ("workload.pool_pages", pool_pages),
            ("workload.engine.extent_pages", extent_pages),
            ("workload.engine.n_cpus", self.engine.n_cpus as u64),
        ];
        if let Some(&(field, _)) = own.iter().chain(more).find(|&&(_, v)| v == 0) {
            return Err(EngineError::ZeroSize(field));
        }
        if pool_pages < extent_pages {
            return Err(EngineError::PoolBelowExtent {
                pool_pages,
                extent_pages,
            });
        }
        Ok(())
    }
}

/// The stream's in-flight scan: its own pull cursor, or a consumer slot
/// in the run's push-delivery engine.
enum CurScan {
    Pull(Box<ScanExec>),
    Push(ConsumerId),
}

/// Progress of one stream through its queries.
struct StreamTask<'q> {
    stream_idx: usize,
    queries: &'q [Query],
    qpos: usize,
    scan_pos: usize,
    /// Executions of the current scan so far (for `ScanSpec::repeat`).
    rep: u32,
    current: Option<CurScan>,
    qstart: SimTime,
    qresult: QueryResult,
    qmetrics: ScanMetrics,
    records: Vec<QueryRecord>,
    finish: SimTime,
}

impl<'q> StreamTask<'q> {
    fn new(stream_idx: usize, queries: &'q [Query]) -> Self {
        StreamTask {
            stream_idx,
            queries,
            qpos: 0,
            scan_pos: 0,
            rep: 0,
            current: None,
            qstart: SimTime::ZERO,
            qresult: QueryResult::default(),
            qmetrics: ScanMetrics::default(),
            records: Vec::new(),
            finish: SimTime::ZERO,
        }
    }

    /// Advance by one scan extent; `None` when the stream has finished.
    fn step(
        &mut self,
        db: &Database,
        world: &mut ExecWorld<'_>,
        push: &mut Option<PushEngine>,
        now: SimTime,
    ) -> EngineResult<Option<SimTime>> {
        loop {
            if self.current.is_none() {
                let Some(q) = self.queries.get(self.qpos) else {
                    self.finish = now;
                    return Ok(None);
                };
                if self.scan_pos == 0 && self.rep == 0 {
                    self.qstart = now;
                    self.qresult = QueryResult::default();
                    self.qmetrics = ScanMetrics::default();
                }
                if self.scan_pos < q.scans.len() && self.rep >= q.scans[self.scan_pos].repeat.max(1)
                {
                    self.scan_pos += 1;
                    self.rep = 0;
                }
                if self.scan_pos >= q.scans.len() {
                    self.records.push(QueryRecord {
                        name: q.name.clone(),
                        stream: self.stream_idx,
                        start: self.qstart,
                        end: now,
                        cpu: self.qmetrics.cpu,
                        io_wait: self.qmetrics.io_wait,
                        throttle_wait: self.qmetrics.throttle_wait,
                        logical_reads: self.qmetrics.logical_reads,
                        physical_reads: self.qmetrics.physical_reads,
                        result: std::mem::take(&mut self.qresult),
                    });
                    self.qpos += 1;
                    self.scan_pos = 0;
                    self.rep = 0;
                    continue;
                }
                let spec = &q.scans[self.scan_pos];
                // Push delivery first; specs it does not admit (RID
                // fetches, order-requiring scans) fall back to pull.
                let admitted = match push.as_mut() {
                    Some(pe) => pe.admit(db, world, spec, now)?,
                    None => None,
                };
                let (cur, scan) = match admitted {
                    Some(cid) => {
                        let pe = push.as_ref().expect("push scan implies push engine");
                        (CurScan::Push(cid), pe.scan_id(cid))
                    }
                    None => {
                        let exec = ScanExec::start(db, world, spec, now)?;
                        let scan = exec.scan_id();
                        (CurScan::Pull(Box::new(exec)), scan)
                    }
                };
                if let (Some(scan), Some(mgr)) = (scan, &world.mgr) {
                    mgr.note_scan_started(scan, now, &q.name, self.stream_idx);
                }
                self.current = Some(cur);
            }
            let stepped = match self.current.as_mut().expect("just set") {
                CurScan::Pull(scan) => scan.step(world, now)?,
                CurScan::Push(cid) => push
                    .as_mut()
                    .expect("push scan implies push engine")
                    .step_consumer(world, *cid, now)?,
            };
            match stepped {
                Some(next) => return Ok(Some(next)),
                None => {
                    let (result, m) = match self.current.take().expect("present") {
                        CurScan::Pull(scan) => (scan.result(), scan.metrics().clone()),
                        CurScan::Push(cid) => push.as_mut().expect("push engine").take_result(cid),
                    };
                    self.qresult.absorb(result);
                    self.qmetrics.absorb(&m);
                    self.rep += 1;
                }
            }
        }
    }
}

/// A point-in-time view of a running workload, delivered to the
/// [`RunHooks::observer`] callback at every metrics-sample tick — the
/// data source for `scanshare watch`.
#[derive(Debug, Clone)]
pub struct WatchFrame {
    /// Virtual time of the sample.
    pub at: SimTime,
    /// Sharing-manager introspection (groups, per-scan throttle state);
    /// `None` in base mode.
    pub probe: Option<ManagerProbe>,
    /// Buffer pool counters so far.
    pub pool: PoolStats,
    /// Pool capacity in pages (for residency percentages).
    pub pool_capacity: usize,
    /// Every resident page with its priority and pin state, sorted by
    /// page id — the residency heatmap.
    pub resident: Vec<ResidentPage>,
    /// Disk counters so far.
    pub disk: DiskStats,
    /// Queries completed so far across all streams.
    pub queries_done: usize,
}

/// Shareable observer callback invoked with each [`WatchFrame`].
pub type WatchObserver = Arc<dyn Fn(&WatchFrame) + Send + Sync>;

/// Optional instrumentation attached to a run. All hooks compose: a run
/// can be decision-logged, watched and profiled at the same time.
#[derive(Default)]
pub struct RunHooks {
    /// The run's event log, handed to the sharing manager. When
    /// `None`, sharing-mode runs still attach a fresh log (capacity
    /// [`DEFAULT_DECISION_CAP`]) so every report can be explained.
    pub decisions: Option<DecisionLog>,
    /// Callback invoked at every metrics-sample tick and once at the
    /// makespan, in event-loop order.
    pub observer: Option<WatchObserver>,
    /// Span profiler threaded through the run (`engine.run`, per-extent
    /// `scan.step` trees, manager and I/O annotations). When `None` —
    /// the default — no span machinery runs at all and the report's
    /// `profile` is `null`.
    pub profiler: Option<SpanProfiler>,
}

/// Decision-log capacity used when no explicit log is hooked in.
pub const DEFAULT_DECISION_CAP: usize = 1 << 16;

/// Run a workload to completion and report the measurements.
pub fn run_workload(db: &Database, spec: &WorkloadSpec) -> EngineResult<RunReport> {
    run_inner(db, spec, RunHooks::default())
}

/// Like [`run_workload`], but with arbitrary [`RunHooks`] attached —
/// what `scanshare watch` uses to stream [`WatchFrame`]s off the run.
pub fn run_workload_hooked(
    db: &Database,
    spec: &WorkloadSpec,
    hooks: RunHooks,
) -> EngineResult<RunReport> {
    run_inner(db, spec, hooks)
}

fn run_inner(db: &Database, spec: &WorkloadSpec, hooks: RunHooks) -> EngineResult<RunReport> {
    spec.check_sizes(&[])?;
    let (policy, mgr) = match &spec.mode {
        SharingMode::Base => (ReplacementPolicy::Lru, None),
        SharingMode::BasePolicy(p) => (*p, None),
        SharingMode::ScanSharing(cfg) => {
            let cfg = SharingConfig {
                pool_pages: spec.pool_pages as u64,
                extent_pages: spec.engine.extent_pages as u64,
                ..cfg.clone()
            };
            let policy = if cfg.enable_priorities {
                ReplacementPolicy::PriorityLru
            } else {
                ReplacementPolicy::Lru
            };
            let mgr = Arc::new(ScanSharingManager::new(cfg));
            // Always record provenance in sharing mode: a saved report
            // should be explainable even when nobody hooked a log in.
            mgr.attach_decision_log(
                hooks
                    .decisions
                    .clone()
                    .unwrap_or_else(|| DecisionLog::new(DEFAULT_DECISION_CAP)),
            );
            (policy, Some(mgr))
        }
    };
    let observer = hooks.observer;
    let profiler = hooks.profiler;
    let pool = BufferPool::new(PoolConfig::new(spec.pool_pages, policy));
    let mut world = ExecWorld::new(db.store(), pool, spec.engine.clone(), mgr.clone());
    if let Some(p) = &profiler {
        world.profiler = Some(p.clone());
        if let Some(m) = &mgr {
            m.attach_profiler(p.clone());
        }
    }
    world.enable_faults(&spec.faults);
    // Push delivery rides on the sharing manager; base modes and pull
    // configs run the exact pre-push code path.
    let mut push: Option<PushEngine> = match &spec.mode {
        SharingMode::ScanSharing(cfg) if cfg.delivery == scanshare::DeliveryMode::Push => {
            Some(PushEngine::new())
        }
        _ => None,
    };

    let mut tasks: Vec<StreamTask<'_>> = spec
        .streams
        .iter()
        .enumerate()
        .map(|(i, s)| StreamTask::new(i, &s.queries))
        .collect();

    // Event queue: (wake time, sequence for FIFO ties, task index).
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (i, s) in spec.streams.iter().enumerate() {
        heap.push(Reverse((s.start_offset.as_micros(), seq, i)));
        seq += 1;
    }
    let mut makespan = SimTime::ZERO;
    let mut sampler = Sampler::new(&world);
    let interval = spec.engine.metrics_interval;
    let mut next_sample = SimTime::ZERO + interval;
    // The engine's root span: every scan.step tree nests beneath it.
    let run_span = profiler
        .as_ref()
        .map(|p| p.begin(Track::Driver, "engine.run", SimTime::ZERO));
    while let Some(Reverse((t_us, _, i))) = heap.pop() {
        let now = SimTime::from_micros(t_us);
        if interval > SimDuration::ZERO {
            // Sample state *before* processing the event, so each point
            // reflects the world as of its nominal timestamp.
            while next_sample <= now {
                let probe = sampler.sample(&world, next_sample);
                if let Some(obs) = &observer {
                    obs(&watch_frame(&world, probe, &tasks, next_sample));
                }
                next_sample += interval;
            }
        }
        // One extent of progress = one scan.step span on the stream's
        // track; the executor opens fetch/cpu/throttle children and the
        // manager parents its placement instants beneath it.
        let step_span = profiler.as_ref().map(|p| {
            let s = p.begin(Track::Stream(i), "scan.step", now);
            p.attr(s, "stream", i.to_string());
            s
        });
        let stepped = tasks[i].step(db, &mut world, &mut push, now);
        match &stepped {
            Ok(Some(next)) => {
                if let (Some(p), Some(s)) = (&profiler, step_span) {
                    p.end(s, *next);
                }
            }
            // Stream finished (or the run is aborting): the step
            // consumed no further virtual time.
            Ok(None) | Err(_) => {
                if let (Some(p), Some(s)) = (&profiler, step_span) {
                    p.end(s, now);
                }
            }
        }
        match stepped? {
            Some(next) => {
                heap.push(Reverse((next.as_micros(), seq, i)));
                seq += 1;
            }
            None => makespan = makespan.max(now),
        }
    }
    if let (Some(p), Some(s)) = (&profiler, run_span) {
        p.end(s, makespan);
    }
    // One closing sample so every series extends to the makespan.
    let probe = sampler.sample(&world, makespan);
    if let Some(obs) = &observer {
        obs(&watch_frame(&world, probe, &tasks, makespan));
    }

    let stream_elapsed: Vec<SimDuration> = tasks
        .iter()
        .zip(&spec.streams)
        .map(|(t, s)| t.finish.since(SimTime::ZERO + s.start_offset))
        .collect();
    let mut queries: Vec<QueryRecord> = Vec::new();
    for t in &mut tasks {
        queries.append(&mut t.records);
    }
    queries.sort_by_key(|q| (q.end, q.stream));

    let breakdown = world.breakdown(makespan.since(SimTime::ZERO));
    let faults = world.fault_summary();
    let metrics = metrics_snapshot(
        makespan,
        &world.read_hist,
        &world.throttle_hist,
        sampler,
        (!spec.faults.plan.is_empty()).then_some(&faults),
    );
    let mut report = RunReport {
        makespan: makespan.since(SimTime::ZERO),
        stream_elapsed,
        queries,
        breakdown,
        disk: world.disk.stats(),
        read_series: world.disk.read_series(),
        seek_series: world.disk.seek_series(),
        seek_distance_series: world.disk.seek_distance_series(),
        pool: world.pool.stats().clone(),
        sharing: mgr.as_ref().map(|m| m.stats()).unwrap_or_default(),
        metrics,
        decisions: mgr
            .as_ref()
            .and_then(|m| m.decision_log())
            .map(|d| d.records())
            .unwrap_or_default(),
        faults,
        // Only a non-default policy is stamped into the report, so
        // default-policy artifacts keep their pre-framework bytes.
        policy: world
            .sharing_policy()
            .filter(|p| *p != scanshare::SharingPolicyKind::default()),
        // The profiler's owner embeds the summary once *its* root span
        // closes (the engine only sees the middle of the span tree).
        profile: None,
        slo: Vec::new(),
        push: push.as_ref().map(|pe| pe.summary()),
    };
    if !spec.slo.is_empty() {
        report.slo = crate::slo::evaluate(&spec.slo, &report);
    }
    Ok(report)
}

/// Assemble the [`WatchFrame`] for one sample tick from the probe the
/// sampler took at it.
fn watch_frame(
    world: &ExecWorld<'_>,
    probe: Option<ManagerProbe>,
    tasks: &[StreamTask<'_>],
    at: SimTime,
) -> WatchFrame {
    WatchFrame {
        at,
        probe,
        pool: world.pool.stats().clone(),
        pool_capacity: world.pool.capacity(),
        resident: world.pool.resident_pages(),
        disk: world.disk.stats(),
        queries_done: tasks.iter().map(|t| t.records.len()).sum(),
    }
}

/// The interval sampler: every sampled signal's points, owned by the run
/// and named only when [`metrics_snapshot`] freezes them.
#[derive(Default)]
struct Sampler {
    pool_hit_ratio: Vec<SeriesPoint>,
    pool_evictions: Vec<SeriesPoint>,
    disk_seek_distance: Vec<SeriesPoint>,
    /// Only a run with a sharing manager samples it.
    mgr: Option<ManagerSignals>,
}

/// What the sampler reads off the sharing manager's probe.
#[derive(Default)]
struct ManagerSignals {
    /// Group count at the latest tick.
    groups: f64,
    /// Active-scan count at the latest tick.
    active_scans: f64,
    shared_groups: Vec<SeriesPoint>,
    /// Each group's leader-trailer distance, from the first tick that
    /// shows the group.
    group_distance: IdMap<AnchorId, Vec<SeriesPoint>>,
    /// Each scan's slowdown, from the first tick that shows the scan.
    scan_slowdown: IdMap<ScanId, Vec<SeriesPoint>>,
}

impl Sampler {
    fn new(world: &ExecWorld<'_>) -> Sampler {
        Sampler {
            mgr: world.mgr.is_some().then(ManagerSignals::default),
            ..Sampler::default()
        }
    }

    /// Record one observation of every sampled signal at virtual time
    /// `at`: pool hit ratio and evictions, cumulative disk seek distance,
    /// and — when a sharing manager is attached — the group count,
    /// active-scan count, each group's leader-trailer distance and each
    /// scan's accumulated slowdown as a fraction of its fairness-cap
    /// budget. Returns the manager's probe, so the tick's watch frame
    /// need not take another.
    fn sample(&mut self, world: &ExecWorld<'_>, at: SimTime) -> Option<ManagerProbe> {
        let point = |value| SeriesPoint {
            at_us: at.as_micros(),
            value,
        };
        let pool = world.pool.stats();
        self.pool_hit_ratio.push(point(pool.hit_ratio()));
        self.pool_evictions.push(point(pool.evictions as f64));
        let seek_distance = world.disk.stats().seek_distance_pages;
        self.disk_seek_distance.push(point(seek_distance as f64));
        let (Some(mgr), Some(m)) = (&world.mgr, &mut self.mgr) else {
            return None;
        };
        let probe = mgr.probe();
        m.groups = probe.groups.len() as f64;
        m.active_scans = probe.scans.len() as f64;
        m.shared_groups.push(point(probe.shared_groups() as f64));
        for g in &probe.groups {
            let points = m.group_distance.entry(g.anchor).or_default();
            points.push(point(g.extent as f64));
        }
        for s in &probe.scans {
            let points = m.scan_slowdown.entry(s.id).or_default();
            points.push(point(s.slowdown_frac));
        }
        Some(probe)
    }
}

/// The run's metrics at `at`, its makespan: the executor's two
/// histograms, the sampler's series and manager gauges, and — only when
/// the spec has fault rules — the fault counters. The one place that
/// names a metric; every list is in name order, so `scan.10.*` comes
/// before `scan.2.*`.
fn metrics_snapshot(
    at: SimTime,
    read_us: &Histogram,
    throttle_wait_us: &Histogram,
    sampler: Sampler,
    faults: Option<&FaultSummary>,
) -> MetricsSnapshot {
    let counter = |name: &str, value| CounterSample {
        name: name.into(),
        value,
    };
    let counters = match faults {
        Some(f) => vec![
            counter("faults.delays_injected", f.delays_injected),
            counter("faults.permanent_errors", f.permanent_errors),
            counter("faults.retries", f.retries),
            counter("faults.scans_aborted", f.scans_aborted),
            counter("faults.timeouts", f.timeouts),
            counter("faults.transient_errors", f.transient_errors),
        ],
        None => Vec::new(),
    };
    let series = |name: String, points| SeriesSnapshot { name, points };
    let mut all = vec![
        series("disk.seek_distance".into(), sampler.disk_seek_distance),
        series("pool.evictions".into(), sampler.pool_evictions),
        series("pool.hit_ratio".into(), sampler.pool_hit_ratio),
    ];
    let mut gauges = Vec::new();
    if let Some(m) = sampler.mgr {
        let gauge = |name: &str, value| GaugeSample {
            name: name.into(),
            value,
        };
        gauges = vec![
            gauge("mgr.active_scans", m.active_scans),
            gauge("mgr.groups", m.groups),
        ];
        all.push(series("mgr.shared_groups".into(), m.shared_groups));
        for (anchor, points) in m.group_distance {
            all.push(series(format!("group.{}.distance_pages", anchor.0), points));
        }
        for (scan, points) in m.scan_slowdown {
            all.push(series(format!("scan.{}.slowdown_frac", scan.0), points));
        }
    }
    all.sort_unstable_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot {
        at,
        counters,
        gauges,
        histograms: vec![
            read_us.snapshot("disk.read_us"),
            throttle_wait_us.snapshot("throttle.wait_us"),
        ],
        series: all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CpuClass;
    use crate::query::{Access, AggSpec, Pred, ScanSpec};
    use scanshare_relstore::{ColType, Column, Schema, Value};
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    fn build_db() -> Database {
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("amount", ColType::Float64),
        ]);
        db.create_mdc_table(
            "lineitem",
            schema.clone(),
            16,
            (0..120_000).map(|i| ((i % 12) as i64, vec![Value::I32(i % 12), Value::F64(1.0)])),
        )
        .unwrap();
        db.create_heap_table(
            "orders",
            schema,
            (0..30_000).map(|i| vec![Value::I32(i % 12), Value::F64(0.5)]),
        )
        .unwrap();
        db
    }

    fn q6_like(name: &str, lo: i64, hi: i64) -> Query {
        Query::single(
            name,
            ScanSpec {
                table: "lineitem".into(),
                access: Access::IndexRange { lo, hi },
                pred: Pred::True,
                agg: AggSpec::sums(vec![1]),
                cpu: CpuClass::io_bound(),
                require_order: false,
                query_priority: Default::default(),
                repeat: 1,
            },
        )
    }

    fn table_q(name: &str) -> Query {
        Query::single(
            name,
            ScanSpec {
                table: "orders".into(),
                access: Access::FullTable,
                pred: Pred::True,
                agg: AggSpec::sums(vec![1]),
                cpu: CpuClass::io_bound(),
                require_order: false,
                query_priority: Default::default(),
                repeat: 1,
            },
        )
    }

    fn spec(db: &Database, streams: Vec<Stream>, mode: SharingMode) -> WorkloadSpec {
        WorkloadSpec {
            streams,
            pool_pages: (db.total_table_pages() / 20).max(64) as usize, // 5%
            engine: EngineConfig::default(),
            mode,
            faults: Default::default(),
            slo: Default::default(),
        }
    }

    fn three_staggered(q: &Query) -> Vec<Stream> {
        // Close enough that the three scans overlap in time (a full
        // lineitem index scan takes a few hundred virtual milliseconds).
        (0..3)
            .map(|i| Stream {
                queries: vec![q.clone()],
                start_offset: SimDuration::from_millis(i * 100),
            })
            .collect()
    }

    #[test]
    fn answers_are_identical_across_modes() {
        let db = build_db();
        let q = q6_like("Q6", 3, 8);
        let base = run_workload(&db, &spec(&db, three_staggered(&q), SharingMode::Base)).unwrap();
        let ss = run_workload(
            &db,
            &spec(
                &db,
                three_staggered(&q),
                SharingMode::ScanSharing(SharingConfig::new(0)),
            ),
        )
        .unwrap();
        assert_eq!(base.queries.len(), 3);
        assert_eq!(ss.queries.len(), 3);
        for (b, s) in base.queries.iter().zip(&ss.queries) {
            assert_eq!(b.result.count, s.result.count);
            for (x, y) in b.result.sums.iter().zip(&s.result.sums) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn sharing_reduces_physical_io_for_overlapping_scans() {
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let base = run_workload(&db, &spec(&db, three_staggered(&q), SharingMode::Base)).unwrap();
        let ss = run_workload(
            &db,
            &spec(
                &db,
                three_staggered(&q),
                SharingMode::ScanSharing(SharingConfig::new(0)),
            ),
        )
        .unwrap();
        assert!(
            ss.disk.pages_read < base.disk.pages_read,
            "sharing must reduce physical reads: ss={} base={}",
            ss.disk.pages_read,
            base.disk.pages_read
        );
        assert!(
            ss.makespan < base.makespan,
            "sharing must reduce end-to-end time: ss={} base={}",
            ss.makespan,
            base.makespan
        );
        assert!(ss.sharing.scans_started == 3);
    }

    #[test]
    fn table_scans_share_too() {
        // A big heap table (~400 pages) against a 64-page pool, with
        // closely staggered streams: base re-reads everything, sharing
        // groups the scans.
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("amount", ColType::Float64),
        ]);
        db.create_heap_table(
            "orders",
            schema,
            (0..200_000).map(|i| vec![Value::I32(i % 12), Value::F64(0.5)]),
        )
        .unwrap();
        let q = table_q("TQ");
        let streams: Vec<Stream> = (0..3)
            .map(|i| Stream {
                queries: vec![q.clone()],
                start_offset: SimDuration::from_millis(i * 200),
            })
            .collect();
        let mk = |mode| WorkloadSpec {
            streams: streams.clone(),
            pool_pages: 64,
            engine: EngineConfig::default(),
            mode,
            faults: Default::default(),
            slo: Default::default(),
        };
        let base = run_workload(&db, &mk(SharingMode::Base)).unwrap();
        let ss = run_workload(&db, &mk(SharingMode::ScanSharing(SharingConfig::new(0)))).unwrap();
        assert!(
            ss.disk.pages_read < base.disk.pages_read,
            "ss={} base={}",
            ss.disk.pages_read,
            base.disk.pages_read
        );
        assert_eq!(ss.queries[0].result.count, 200_000);
    }

    #[test]
    fn push_delivery_matches_pull_answers_and_fixes_pages_once() {
        use scanshare::DeliveryMode;
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        // Tighter stagger than three_staggered: the default policy only
        // accepts riders whose missed prefix is at most a fifth of the
        // lap, and 100ms into this scan is already past that budget.
        // 10ms apart keeps the catch-up replays short enough to attach
        // while still being late enough that catch-up pages are paid.
        let streams: Vec<Stream> = (0..3)
            .map(|i| Stream {
                queries: vec![q.clone()],
                start_offset: SimDuration::from_millis(i * 10),
            })
            .collect();
        let mk = |delivery| {
            let mut cfg = SharingConfig::new(0);
            cfg.delivery = delivery;
            spec(&db, streams.clone(), SharingMode::ScanSharing(cfg))
        };
        let pull = run_workload(&db, &mk(DeliveryMode::Pull)).unwrap();
        let push = run_workload(&db, &mk(DeliveryMode::Push)).unwrap();
        // Same answers, per query.
        assert_eq!(pull.queries.len(), push.queries.len());
        for (a, b) in pull.queries.iter().zip(&push.queries) {
            assert_eq!(a.result.count, b.result.count);
            for (x, y) in a.result.sums.iter().zip(&b.result.sums) {
                assert!((x - y).abs() < 1e-6);
            }
        }
        // Pull reports carry no push section; push reports do, with the
        // one-fix-per-page property: driver fixes plus catch-up replays,
        // never one fix per consumer.
        assert!(pull.push.is_none());
        let ps = push.push.as_ref().expect("push summary");
        assert!(ps.drivers >= 1, "no driver founded: {ps:?}");
        assert!(ps.attaches >= 1, "nobody rode along: {ps:?}");
        assert!(ps.extents_delivered > 0);
        assert!(ps.consumer_pages > ps.pages_delivered, "{ps:?}");
        assert!(
            ps.fixes_per_page() < 2.0,
            "catch-up replays exceeded a full second lap: {ps:?}"
        );
        // Provenance narrates the cohort: one DriverAttach per consumer.
        use scanshare::DecisionEvent;
        let attaches = push
            .decisions
            .iter()
            .filter(|d| matches!(d.event, DecisionEvent::DriverAttach { .. }))
            .count();
        assert_eq!(attaches as u64, ps.drivers + ps.attaches);
        // The driver pays the pool fixes; riders pay none beyond their
        // private catch-up cursors.
        let fixes: u64 = push.queries.iter().map(|q| q.logical_reads).sum();
        assert_eq!(fixes, ps.pages_delivered + ps.catchup_pages);
    }

    /// Eight staggered riders of two pipelines — a Q1-like grouped
    /// aggregate and a Q6-like filter, alternating — on one table.
    #[test]
    fn riders_of_one_pipeline_are_folded_together_under_push_only() {
        use scanshare::DeliveryMode;
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("qty", ColType::Float64),
            Column::new("price", ColType::Float64),
            Column::new("disc", ColType::Float64),
            Column::new("flag", ColType::Char),
            Column::new("status", ColType::Char),
        ]);
        db.create_mdc_table(
            "lineitem",
            schema,
            16,
            (0..120_000i32).map(|i| {
                let row = vec![
                    Value::I32(i % 12),
                    Value::F64(((i * 31) % 50) as f64 + 1.0),
                    Value::F64((i as f64).sqrt() * 13.7 + 900.0),
                    Value::F64(((i * 17) % 11) as f64 / 100.0),
                    Value::Ch(b"ANR"[(i as usize * 7 / 3) % 3]),
                    Value::Ch(b"FO"[(i as usize / 5) % 2]),
                ];
                ((i % 12) as i64, row)
            }),
        )
        .unwrap();
        let scan = |pred, agg, cpu| ScanSpec {
            table: "lineitem".into(),
            access: Access::IndexRange { lo: 0, hi: 11 },
            pred,
            agg,
            cpu,
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        };
        let q1 = scan(
            Pred::True,
            AggSpec::grouped_sums(vec![1, 2, 3], vec![4, 5]),
            CpuClass::cpu_bound(),
        );
        let q6 = scan(
            Pred::And(
                Box::new(Pred::F64LessThan(1, 24.0)),
                Box::new(Pred::F64LessThan(3, 0.07)),
            ),
            AggSpec::sums(vec![2]),
            CpuClass::io_bound(),
        );
        let streams: Vec<Stream> = (0..8)
            .map(|i| Stream {
                queries: vec![match i % 2 {
                    0 => Query::single("Q1", q1.clone()),
                    _ => Query::single("Q6", q6.clone()),
                }],
                start_offset: SimDuration::from_millis(i * 2),
            })
            .collect();
        let mk = |delivery| {
            let mut cfg = SharingConfig::new(0);
            cfg.delivery = delivery;
            spec(&db, streams.clone(), SharingMode::ScanSharing(cfg))
        };
        // Pull steps have one consumer each: nothing to fold together.
        let fused = crate::scan_exec::fused_classes;
        let before = fused();
        let pull = run_workload(&db, &mk(DeliveryMode::Pull)).unwrap();
        assert_eq!(fused(), before);
        let push = run_workload(&db, &mk(DeliveryMode::Push)).unwrap();
        assert!(fused() > before, "no class of riders was folded together");
        let ps = push.push.as_ref().expect("push summary");
        assert!(ps.attaches >= 6, "too few riders to fold together: {ps:?}");

        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs());
        assert_eq!(pull.queries.len(), 8);
        for a in &pull.queries {
            let b = push.queries.iter().find(|b| b.stream == a.stream);
            let (a, b) = (&a.result, &b.expect("the same streams ran").result);
            assert!(a.count > 0);
            assert_eq!(a.count, b.count);
            assert!(a.sums.iter().zip(&b.sums).all(|(x, y)| close(*x, *y)));
            assert_eq!(a.groups.len(), b.groups.len());
            for ((ka, ga), (kb, gb)) in a.groups.iter().zip(&b.groups) {
                assert_eq!((ka, ga.count), (kb, gb.count));
                assert!(ga.sums.iter().zip(&gb.sums).all(|(x, y)| close(*x, *y)));
            }
        }
        let q1s = pull.queries.iter().filter(|q| q.name == "Q1");
        assert!(q1s.clone().all(|q| q.result.groups.len() == 6) && q1s.count() == 4);
    }

    #[test]
    fn push_runs_are_deterministic() {
        use scanshare::DeliveryMode;
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let mut cfg = SharingConfig::new(0);
        cfg.delivery = DeliveryMode::Push;
        let s = spec(&db, three_staggered(&q), SharingMode::ScanSharing(cfg));
        let r1 = run_workload(&db, &s).unwrap();
        let r2 = run_workload(&db, &s).unwrap();
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let s = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let r1 = run_workload(&db, &s).unwrap();
        let r2 = run_workload(&db, &s).unwrap();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.disk.pages_read, r2.disk.pages_read);
        assert_eq!(r1.disk.seeks, r2.disk.seeks);
    }

    #[test]
    fn staggered_streams_start_at_their_offsets() {
        let db = build_db();
        let q = q6_like("Q6", 0, 3);
        let streams = vec![
            Stream {
                queries: vec![q.clone()],
                start_offset: SimDuration::ZERO,
            },
            Stream {
                queries: vec![q.clone()],
                start_offset: SimDuration::from_secs(10),
            },
        ];
        let r = run_workload(&db, &spec(&db, streams, SharingMode::Base)).unwrap();
        let q1 = r.queries.iter().find(|r| r.stream == 1).unwrap();
        assert!(q1.start >= SimTime::from_secs(10));
    }

    #[test]
    fn multi_scan_queries_run_their_scans_sequentially() {
        let db = build_db();
        let q = Query {
            name: "J".into(),
            scans: vec![
                table_q("x").scans[0].clone(),
                q6_like("y", 0, 2).scans[0].clone(),
            ],
        };
        let r = run_workload(
            &db,
            &spec(
                &db,
                vec![Stream {
                    queries: vec![q],
                    start_offset: SimDuration::ZERO,
                }],
                SharingMode::Base,
            ),
        )
        .unwrap();
        assert_eq!(r.queries.len(), 1);
        // Counts from both scans are absorbed.
        assert_eq!(r.queries[0].result.count, 30_000 + 30_000);
        assert_eq!(r.queries[0].result.sums.len(), 2);
    }

    #[test]
    fn repeated_inner_scans_run_n_times_and_share_leftovers() {
        let db = build_db();
        // A nested-loop-ish query: the inner index scan runs 4 times.
        let mut q = q6_like("NL", 0, 5);
        q.scans[0].repeat = 4;
        let streams = vec![Stream {
            queries: vec![q],
            start_offset: SimDuration::ZERO,
        }];
        let mk = |mode| WorkloadSpec {
            streams: streams.clone(),
            pool_pages: 256,
            engine: EngineConfig::default(),
            mode,
            faults: Default::default(),
            slo: Default::default(),
        };
        let base = run_workload(&db, &mk(SharingMode::Base)).unwrap();
        let ss = run_workload(&db, &mk(SharingMode::ScanSharing(SharingConfig::new(0)))).unwrap();
        // All 4 repeats' rows are aggregated.
        assert_eq!(base.queries[0].result.count, 4 * 60_000);
        assert_eq!(ss.queries[0].result.count, 4 * 60_000);
        // Sharing mode re-joins the finished scan's leftovers each
        // repeat; base (ringed) re-reads almost everything.
        assert!(
            ss.disk.pages_read < base.disk.pages_read,
            "ss {} base {}",
            ss.disk.pages_read,
            base.disk.pages_read
        );
    }

    #[test]
    fn a_hooked_log_sees_every_scan_lifecycle() {
        use scanshare::decision::{lifecycles, render_lifecycles};
        use scanshare::DecisionEvent;
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let spec = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let log = DecisionLog::new(1024);
        let hooks = RunHooks {
            decisions: Some(log.clone()),
            ..RunHooks::default()
        };
        run_workload_hooked(&db, &spec, hooks).unwrap();
        let records = log.records();
        let count = |f: fn(&DecisionEvent) -> bool| records.iter().filter(|r| f(&r.event)).count();
        assert_eq!(count(|e| matches!(e, DecisionEvent::ScanStarted { .. })), 3);
        assert_eq!(count(|e| matches!(e, DecisionEvent::ScanEnded { .. })), 3);
        // At least one scan joined another (captured in the placement).
        assert!(lifecycles(&records)
            .iter()
            .any(|s| s.placement.as_deref().is_some_and(|p| p.contains("join"))));
        // Rendering mentions the query.
        assert!(render_lifecycles(&records).contains("Q6"));
    }

    #[test]
    fn shared_run_reports_observability_series_and_histograms() {
        let db = build_db();
        // A fast I/O-bound scan grouped with a slow CPU-bound one over
        // the same range: the fast leader runs ahead and gets throttled.
        let fast = q6_like("fast", 0, 11);
        let mut slow = q6_like("slow", 0, 11);
        slow.scans[0].cpu = CpuClass::cpu_bound();
        let streams = vec![
            Stream {
                queries: vec![fast],
                start_offset: SimDuration::ZERO,
            },
            Stream {
                queries: vec![slow],
                start_offset: SimDuration::from_millis(10),
            },
        ];
        let spec = spec(
            &db,
            streams,
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let r = run_workload(&db, &spec).unwrap();
        let m = &r.metrics;
        assert_eq!(m.at, SimTime::ZERO + r.makespan);
        // The disk read-latency histogram saw every physical request.
        let h = m.histogram("disk.read_us").expect("read histogram");
        assert_eq!(h.count, r.disk.requests);
        assert!(h.p50 > 0 && h.p50 <= h.p99);
        // Interval sampling produced pool and disk series.
        assert!(m.series("pool.hit_ratio").expect("hit ratio").points.len() > 1);
        let seek = m.series("disk.seek_distance").expect("seek distance");
        assert_eq!(
            seek.points.last().map(|p| p.value as u64),
            Some(r.disk.seek_distance_pages)
        );
        // The overlapping scans formed at least one group with a
        // nonzero leader-trailer distance at some sample...
        let dists: Vec<_> = m.series_with_prefix("group.").collect();
        assert!(!dists.is_empty(), "no per-group distance series");
        assert!(dists.iter().any(|s| s.max_value() > 0.0));
        // ...and at least one trailer accumulated slowdown against its
        // fairness-cap budget.
        let slow: Vec<_> = m.series_with_prefix("scan.").collect();
        assert!(!slow.is_empty(), "no per-scan slowdown series");
        assert!(slow.iter().any(|s| s.max_value() > 0.0));
        assert!(slow.iter().all(|s| s.max_value() <= 1.0));
        // Throttle waits were recorded as a histogram too.
        let t = m.histogram("throttle.wait_us").expect("throttle histogram");
        assert!(t.count > 0);
        // The seek-distance series rode along in the report.
        assert_eq!(r.seek_distance_series.total(), r.disk.seek_distance_pages);
    }

    #[test]
    fn metrics_interval_zero_disables_interval_sampling() {
        let db = build_db();
        let q = q6_like("Q6", 0, 5);
        let mut spec = spec(&db, three_staggered(&q), SharingMode::Base);
        spec.engine.metrics_interval = SimDuration::ZERO;
        let r = run_workload(&db, &spec).unwrap();
        // Only the single closing sample at the makespan remains.
        let hit = r.metrics.series("pool.hit_ratio").expect("hit ratio");
        assert_eq!(hit.points.len(), 1);
        assert_eq!(hit.points[0].at_us, r.makespan.as_micros());
    }

    #[test]
    fn series_record_time_and_value() {
        let db = build_db();
        let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
        let world = ExecWorld::new(db.store(), pool, EngineConfig::default(), None);
        let mut sampler = Sampler::new(&world);
        assert!(sampler.sample(&world, SimTime::from_millis(100)).is_none());
        sampler.sample(&world, SimTime::from_millis(200));
        let snap = metrics_snapshot(
            SimTime::from_millis(200),
            &world.read_hist,
            &world.throttle_hist,
            sampler,
            None,
        );
        let ss = snap.series("pool.hit_ratio").unwrap();
        let at: Vec<u64> = ss.points.iter().map(|p| p.at_us).collect();
        assert_eq!(at, [100_000, 200_000]);
        // No manager: the three fixed series, no gauges, no counters.
        assert_eq!(snap.series.len(), 3);
        assert!(snap.gauges.is_empty() && snap.counters.is_empty());
    }

    /// A snapshot of every kind of signal: two groups and two scans whose
    /// ids sort differently as numbers and as names, and armed faults.
    fn full_snapshot() -> MetricsSnapshot {
        let point = |at_us, value| SeriesPoint { at_us, value };
        let mut m = ManagerSignals {
            groups: 2.0,
            active_scans: 3.0,
            shared_groups: vec![point(0, 1.0)],
            ..ManagerSignals::default()
        };
        for id in [2, 10] {
            m.group_distance.insert(AnchorId(id), vec![point(0, 160.0)]);
            m.scan_slowdown.insert(ScanId(id), vec![point(0, 0.25)]);
        }
        let sampler = Sampler {
            pool_hit_ratio: vec![point(2_000_000, 0.25)],
            mgr: Some(m),
            ..Sampler::default()
        };
        let mut read_us = Histogram::new();
        for v in [3u64, 900, 14, 7_000_000] {
            read_us.record(v);
        }
        let faults = FaultSummary {
            retries: 42,
            ..FaultSummary::default()
        };
        let at = SimTime::from_secs(3);
        metrics_snapshot(at, &read_us, &Histogram::new(), sampler, Some(&faults))
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let snap = full_snapshot();
        assert_eq!(snap.at, SimTime::from_secs(3));
        let sorted = |names: Vec<&str>| names.windows(2).all(|w| w[0] < w[1]);
        assert!(sorted(snap.counters.iter().map(|c| &*c.name).collect()));
        assert!(sorted(snap.gauges.iter().map(|g| &*g.name).collect()));
        assert!(sorted(snap.histograms.iter().map(|h| &*h.name).collect()));
        let series: Vec<&str> = snap.series.iter().map(|s| &*s.name).collect();
        assert_eq!(
            series,
            [
                "disk.seek_distance",
                "group.10.distance_pages",
                "group.2.distance_pages",
                "mgr.shared_groups",
                "pool.evictions",
                "pool.hit_ratio",
                "scan.10.slowdown_frac",
                "scan.2.slowdown_frac",
            ]
        );
        assert_eq!(snap.counters.len(), 6);
        assert_eq!(snap.counter("faults.retries"), Some(42));
        assert_eq!(snap.counter("faults.timeouts"), Some(0));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("mgr.groups"), Some(2.0));
        assert_eq!(snap.gauge("mgr.active_scans"), Some(3.0));
        assert_eq!(snap.histogram("disk.read_us").unwrap().count, 4);
        assert_eq!(snap.histogram("throttle.wait_us").unwrap().count, 0);
        assert_eq!(snap.series("pool.hit_ratio").unwrap().points.len(), 1);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = full_snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        // Quantiles recomputed from the deserialized snapshot agree.
        assert_eq!(
            back.histogram("disk.read_us").unwrap().quantile(0.5),
            snap.histogram("disk.read_us").unwrap().p50
        );
    }

    /// Series and gauges keyed by their full names.
    #[derive(Default)]
    struct ByName {
        series: BTreeMap<String, Vec<SeriesPoint>>,
        gauges: BTreeMap<String, f64>,
    }

    /// The interval sampler as first written — every signal looked up by
    /// a freshly formatted name at every tick — fed from the watch
    /// frames, which see the same probe and counters at the same
    /// instants as the run's own sampler.
    fn sample_by_name(reg: &mut ByName, f: &WatchFrame) {
        let mut push = |name: String, value: f64| {
            let at_us = f.at.as_micros();
            let points = reg.series.entry(name).or_default();
            points.push(SeriesPoint { at_us, value });
        };
        push("pool.hit_ratio".into(), f.pool.hit_ratio());
        push("pool.evictions".into(), f.pool.evictions as f64);
        push(
            "disk.seek_distance".into(),
            f.disk.seek_distance_pages as f64,
        );
        let Some(probe) = &f.probe else { return };
        push("mgr.shared_groups".into(), probe.shared_groups() as f64);
        for g in &probe.groups {
            push(
                format!("group.{}.distance_pages", g.anchor.0),
                g.extent as f64,
            );
        }
        for s in &probe.scans {
            push(format!("scan.{}.slowdown_frac", s.id.0), s.slowdown_frac);
        }
        let gauges = &mut reg.gauges;
        gauges.insert("mgr.groups".into(), probe.groups.len() as f64);
        gauges.insert("mgr.active_scans".into(), probe.scans.len() as f64);
    }

    /// Run `spec` and return its report beside the gauges and series the
    /// by-name sampler records over the same run.
    fn run_beside_the_by_name_sampler(
        db: &Database,
        spec: &WorkloadSpec,
    ) -> (RunReport, MetricsSnapshot) {
        let reference = Arc::new(Mutex::new(ByName::default()));
        let sink = reference.clone();
        let hooks = RunHooks {
            observer: Some(Arc::new(move |f: &WatchFrame| {
                sample_by_name(&mut sink.lock().unwrap(), f)
            })),
            ..RunHooks::default()
        };
        let r = run_workload_hooked(db, spec, hooks).unwrap();
        let ByName { series, gauges } = std::mem::take(&mut *reference.lock().unwrap());
        let sampled = MetricsSnapshot {
            at: SimTime::ZERO + r.makespan,
            gauges: (gauges.into_iter())
                .map(|(name, value)| GaugeSample { name, value })
                .collect(),
            series: (series.into_iter())
                .map(|(name, points)| SeriesSnapshot { name, points })
                .collect(),
            ..MetricsSnapshot::default()
        };
        (r, sampled)
    }

    #[test]
    fn the_sampler_records_what_sampling_by_name_records() {
        let db = build_db();
        // Two scans group under one anchor; the fast one finishes and the
        // group dissolves; a range disjoint from the survivor's founds a
        // second anchor, where a later pair re-forms a group; the last
        // scan runs on alone.
        let fast = q6_like("fast", 0, 5);
        let mut slow = q6_like("slow", 0, 5);
        slow.scans[0].cpu = CpuClass::cpu_bound();
        let stream = |queries: Vec<Query>, ms| Stream {
            queries,
            start_offset: SimDuration::from_millis(ms),
        };
        let streams = vec![
            stream(vec![fast, q6_like("late", 6, 11)], 0),
            stream(vec![slow], 10),
            stream(vec![q6_like("later", 6, 11), table_q("alone")], 400),
        ];
        let mut spec = spec(
            &db,
            streams,
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        spec.engine.metrics_interval = SimDuration::from_millis(5);
        let (r, sampled) = run_beside_the_by_name_sampler(&db, &spec);
        let expected = MetricsSnapshot {
            gauges: sampled.gauges.clone(),
            series: sampled.series.clone(),
            ..r.metrics.clone()
        };
        assert_eq!(r.metrics, expected);
        assert_eq!(
            serde_json::to_string(&r.metrics).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );

        // The run did what the comment above says it does.
        let end = r.makespan.as_micros();
        let scans: Vec<_> = sampled.series_with_prefix("scan.").collect();
        assert_eq!(scans.len(), 5);
        assert!(
            scans.iter().any(|s| s.points.last().unwrap().at_us < end),
            "no scan finished before the run did"
        );
        let anchors: Vec<_> = sampled.series_with_prefix("group.").collect();
        assert!(anchors.len() >= 2, "one anchor served the whole run");
        let shared: Vec<f64> = sampled
            .series("mgr.shared_groups")
            .unwrap()
            .values()
            .collect();
        let formed = shared
            .iter()
            .position(|&n| n > 0.0)
            .expect("no group formed");
        let dissolved = formed + shared[formed..].iter().position(|&n| n == 0.0).unwrap();
        assert!(
            shared[dissolved..].iter().any(|&n| n > 0.0),
            "no group re-formed after the first dissolved"
        );
        assert_eq!(*shared.last().unwrap(), 0.0);
        let ticks = sampled.series("pool.hit_ratio").unwrap().points.len();
        assert!(ticks > 100 && shared.len() == ticks);

        // With interval sampling off, both record the closing sample only.
        spec.engine.metrics_interval = SimDuration::ZERO;
        let (r, sampled) = run_beside_the_by_name_sampler(&db, &spec);
        assert_eq!(r.metrics.series, sampled.series);
        assert_eq!(r.metrics.gauges, sampled.gauges);
        assert!(r.metrics.series.iter().all(|s| s.points.len() == 1));
        // A base run has no manager and so no manager series.
        spec.mode = SharingMode::Base;
        let (r, sampled) = run_beside_the_by_name_sampler(&db, &spec);
        assert_eq!(r.metrics.series, sampled.series);
        assert_eq!(r.metrics.series.len(), 3);
        assert!(r.metrics.gauges.is_empty() && sampled.gauges.is_empty());
    }

    #[test]
    fn the_report_embeds_the_log_its_lifecycles_come_from() {
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let mut spec = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let log = DecisionLog::new(4096);
        let hooks = RunHooks {
            decisions: Some(log.clone()),
            ..RunHooks::default()
        };
        let r = run_workload_hooked(&db, &spec, hooks).unwrap();
        assert_eq!(r.decisions, log.records());
        let spans = scanshare::decision::lifecycles(&r.decisions);
        assert_eq!(spans.len(), 3);
        assert!(spans
            .iter()
            .all(|s| s.start.is_some() && s.finish.is_some()));
        // A base run has no manager and embeds nothing.
        spec.mode = SharingMode::Base;
        assert!(run_workload(&db, &spec).unwrap().decisions.is_empty());
    }

    #[test]
    fn shared_run_embeds_decision_provenance() {
        use scanshare::DecisionEvent;
        let db = build_db();
        // Fast leader + slow trailer over the same range, so the log
        // covers grouping, throttling, and page reprioritisation.
        let fast = q6_like("fast", 0, 11);
        let mut slow = q6_like("slow", 0, 11);
        slow.scans[0].cpu = CpuClass::cpu_bound();
        let streams = vec![
            Stream {
                queries: vec![fast],
                start_offset: SimDuration::ZERO,
            },
            Stream {
                queries: vec![slow],
                start_offset: SimDuration::from_millis(10),
            },
        ];
        let spec = spec(
            &db,
            streams,
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let r = run_workload(&db, &spec).unwrap();
        assert!(!r.decisions.is_empty(), "sharing run must embed decisions");
        // Per-scan the log is time-ordered (the global log interleaves
        // streams whose steps complete at different times), and it
        // covers the decisive event kinds.
        for scan in r.decisions.iter().map(|d| d.event.scan()) {
            let times: Vec<_> = r
                .decisions
                .iter()
                .filter(|d| d.event.scan() == scan)
                .map(|d| d.at)
                .collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
        let has =
            |pred: &dyn Fn(&DecisionEvent) -> bool| r.decisions.iter().any(|d| pred(&d.event));
        assert!(has(&|e| matches!(e, DecisionEvent::GroupStart { .. })));
        assert!(has(&|e| matches!(e, DecisionEvent::GroupJoin { .. })));
        assert!(has(&|e| matches!(e, DecisionEvent::Throttle { .. })));
        assert!(has(&|e| matches!(e, DecisionEvent::RoleChange { .. })));
        // Base mode embeds none.
        let mut base_spec = spec.clone();
        base_spec.mode = SharingMode::Base;
        let base = run_workload(&db, &base_spec).unwrap();
        assert!(base.decisions.is_empty());
        // A caller-supplied log sees the same records the report embeds.
        let log = DecisionLog::new(1024);
        let hooked = run_workload_hooked(
            &db,
            &spec,
            RunHooks {
                decisions: Some(log.clone()),
                ..RunHooks::default()
            },
        )
        .unwrap();
        assert_eq!(hooked.decisions.len(), log.len());
        assert!(!hooked.decisions.is_empty());
    }

    #[test]
    fn watch_observer_streams_frames_in_time_order() {
        use std::sync::Mutex;
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let spec = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let frames: Arc<Mutex<Vec<WatchFrame>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = frames.clone();
        let r = run_workload_hooked(
            &db,
            &spec,
            RunHooks {
                observer: Some(Arc::new(move |f: &WatchFrame| {
                    sink.lock().unwrap().push(f.clone());
                })),
                ..RunHooks::default()
            },
        )
        .unwrap();
        let frames = frames.lock().unwrap();
        assert!(frames.len() > 1, "expected one frame per sample tick");
        assert!(frames.windows(2).all(|w| w[0].at <= w[1].at));
        // The closing frame reflects the finished run.
        let last = frames.last().unwrap();
        assert_eq!(last.at, SimTime::ZERO + r.makespan);
        assert_eq!(last.queries_done, r.queries.len());
        assert_eq!(last.pool_capacity, spec.pool_pages);
        assert!(last.resident.len() <= last.pool_capacity);
        // Sharing mode attaches a probe; mid-run some frame saw scans.
        assert!(frames.iter().all(|f| f.probe.is_some()));
        assert!(frames
            .iter()
            .any(|f| !f.probe.as_ref().unwrap().scans.is_empty()));
        // Residency never exceeds capacity and pages carry priorities.
        assert!(frames.iter().any(|f| !f.resident.is_empty()));
    }

    fn fault_plan(seed: u64, rules: Vec<scanshare_storage::FaultRule>) -> FaultsConfig {
        FaultsConfig {
            plan: scanshare_storage::FaultPlan { seed, rules },
            ..FaultsConfig::default()
        }
    }

    #[test]
    fn transient_fault_plan_preserves_answers_and_counts_retries() {
        use scanshare_storage::{FaultKind, FaultRule};
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let clean = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let mut faulty = clean.clone();
        faulty.faults = fault_plan(
            7,
            vec![FaultRule {
                device: None,
                pages: None,
                from_us: 0,
                until_us: None,
                fault: FaultKind::TransientError { probability: 0.01 },
            }],
        );
        let r0 = run_workload(&db, &clean).unwrap();
        let r = run_workload(&db, &faulty).unwrap();
        // Every retry absorbed its transient error: answers unchanged,
        // nothing aborted, and the delays only cost time.
        assert_eq!(r.queries.len(), r0.queries.len());
        for (a, b) in r0.queries.iter().zip(&r.queries) {
            assert_eq!(a.result.count, b.result.count);
        }
        assert!(
            r.faults.transient_errors > 0,
            "plan never fired: {:?}",
            r.faults
        );
        assert_eq!(r.faults.retries, r.faults.transient_errors);
        assert_eq!(r.faults.scans_aborted, 0);
        assert!(r.makespan >= r0.makespan);
        // The counters rode into the metrics snapshot.
        assert_eq!(r.metrics.counter("faults.retries"), Some(r.faults.retries));
        // The fault-free run registered none of them.
        assert_eq!(r0.metrics.counter("faults.retries"), None);
        assert_eq!(r0.faults, FaultSummary::default());
    }

    #[test]
    fn permanent_fault_degrades_the_run_instead_of_failing_it() {
        use scanshare::DecisionEvent;
        use scanshare_storage::{FaultKind, FaultRule};
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let mut spec = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        // The device dies for good 100 virtual ms in: scans that already
        // grouped keep running on pool hits, then abort one by one as
        // they need fresh pages.
        spec.faults = fault_plan(
            0,
            vec![FaultRule {
                device: None,
                pages: None,
                from_us: 100_000,
                until_us: None,
                fault: FaultKind::PermanentError,
            }],
        );
        let r = run_workload(&db, &spec).unwrap();
        // The run completed and every query record exists, with partial
        // answers for the aborted scans.
        assert_eq!(r.queries.len(), 3);
        assert!(
            r.faults.scans_aborted > 0,
            "nothing aborted: {:?}",
            r.faults
        );
        assert!(r.faults.permanent_errors >= r.faults.scans_aborted);
        assert_eq!(
            r.metrics.counter("faults.scans_aborted"),
            Some(r.faults.scans_aborted)
        );
        // Provenance narrates the degradation: the injected faults, the
        // group evictions, and the degraded-mode transitions.
        let has =
            |pred: &dyn Fn(&DecisionEvent) -> bool| r.decisions.iter().any(|d| pred(&d.event));
        assert!(has(&|e| matches!(
            e,
            DecisionEvent::FaultInjected {
                transient: false,
                ..
            }
        )));
        assert!(has(&|e| matches!(e, DecisionEvent::ScanEvicted { .. })));
        assert!(has(&|e| matches!(e, DecisionEvent::DegradedMode { .. })));
        // Eviction reasons carry the failing device and page.
        assert!(r.decisions.iter().any(|d| matches!(
            &d.event,
            DecisionEvent::ScanEvicted { reason, .. } if reason.contains("permanent read fault")
        )));
    }

    /// A run without fault rules never declares a read lost, however
    /// slow its disk: the empty plan grants no retry budget. Every
    /// request here outlasts the default 200 ms timeout. The digest is
    /// the report's as written before fault-free reads went through the
    /// plan.
    #[test]
    fn a_slow_disk_without_fault_rules_never_times_out() {
        let db = build_db();
        let q = q6_like("Q6", 0, 5);
        let mut slow = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        slow.engine.disk.transfer_per_page = SimDuration::from_micros(250_000);
        let report = run_workload(&db, &slow).unwrap();
        let d = &report.disk;
        assert!(d.requests > 0);
        assert!(d.busy.as_micros() >= d.requests * 250_000);
        assert_eq!(report.faults, FaultSummary::default());
        let json = serde_json::to_string(&report).unwrap();
        let digest = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 33_366_765_337_216_534, "slow-disk report digest");
    }

    /// A zero pool, extent or CPU count is an error naming the field,
    /// not a panic inside the run.
    #[test]
    fn a_zero_size_is_an_error_naming_the_field() {
        let db = build_db();
        let ok = spec(
            &db,
            three_staggered(&q6_like("Q6", 0, 5)),
            SharingMode::Base,
        );
        for field in [
            "workload.pool_pages",
            "workload.engine.extent_pages",
            "workload.engine.n_cpus",
        ] {
            let mut bad = ok.clone();
            match field {
                "workload.pool_pages" => bad.pool_pages = 0,
                "workload.engine.extent_pages" => bad.engine.extent_pages = 0,
                _ => bad.engine.n_cpus = 0,
            }
            let err = run_workload(&db, &bad).unwrap_err();
            assert_eq!(err, EngineError::ZeroSize(field));
        }
    }

    /// A pool smaller than one extent, which every scan step pins whole,
    /// is an error naming both sizes under pull and push — not a run that
    /// fails with the pool exhausted. A pool of exactly one extent runs.
    #[test]
    fn a_pool_below_one_extent_is_an_error_naming_both_sizes() {
        use scanshare::DeliveryMode;
        let db = build_db();
        for delivery in [DeliveryMode::Pull, DeliveryMode::Push] {
            let mut cfg = SharingConfig::new(0);
            cfg.delivery = delivery;
            let ok = spec(
                &db,
                three_staggered(&q6_like("Q6", 0, 5)),
                SharingMode::ScanSharing(cfg),
            );
            let extent_pages = ok.engine.extent_pages as usize;
            for pool_pages in [1, 2, extent_pages - 1] {
                let bad = WorkloadSpec {
                    pool_pages,
                    ..ok.clone()
                };
                let err = run_workload(&db, &bad).unwrap_err();
                assert_eq!(
                    err,
                    EngineError::PoolBelowExtent {
                        pool_pages: pool_pages as u64,
                        extent_pages: extent_pages as u64,
                    }
                );
                assert_eq!(
                    err.to_string(),
                    format!(
                        "workload.pool_pages ({pool_pages}) must be at least \
                         workload.engine.extent_pages ({extent_pages})"
                    )
                );
            }
            let exact = WorkloadSpec {
                pool_pages: extent_pages,
                ..ok
            };
            assert!(run_workload(&db, &exact).is_ok(), "{delivery:?}");
        }
    }

    #[test]
    fn profiled_run_exports_a_valid_span_tree() {
        use scanshare::obs::span::validate_chrome_trace;
        use scanshare::DeliveryMode;
        let db = build_db();
        // Throttling workload (fast leader + slow trailer) so the span
        // tree covers fetch, cpu, throttle, and manager phases. Under
        // push the trailer arrives late enough to be refused as a rider
        // and found a driver of its own: inside a cohort there is one
        // cursor and nothing to throttle.
        let fast = q6_like("fast", 0, 11);
        let mut slow = q6_like("slow", 0, 11);
        slow.scans[0].cpu = CpuClass::cpu_bound();
        for (delivery, stagger_ms) in [(DeliveryMode::Pull, 10), (DeliveryMode::Push, 100)] {
            let streams = vec![
                Stream {
                    queries: vec![fast.clone()],
                    start_offset: SimDuration::ZERO,
                },
                Stream {
                    queries: vec![slow.clone()],
                    start_offset: SimDuration::from_millis(stagger_ms),
                },
            ];
            let mut cfg = SharingConfig::new(0);
            cfg.delivery = delivery;
            let spec = spec(&db, streams, SharingMode::ScanSharing(cfg));
            let profiler = SpanProfiler::default();
            let r = run_workload_hooked(
                &db,
                &spec,
                RunHooks {
                    profiler: Some(profiler.clone()),
                    ..RunHooks::default()
                },
            )
            .unwrap();
            // The export is a valid Chrome trace.
            let trace = profiler.perfetto();
            validate_chrome_trace(&trace).expect("valid chrome trace");
            // The root engine.run span covers the whole makespan, and the
            // expected phases all appear.
            let sum = profiler.summary();
            let run = sum.phases.iter().find(|p| p.name == "engine.run").unwrap();
            assert_eq!(run.vt_incl_us, r.makespan.as_micros());
            for phase in ["scan.step", "extent.fetch", "cpu.process", "throttle.wait"] {
                assert!(
                    sum.phases.iter().any(|p| p.name == phase),
                    "{delivery:?}: missing phase {phase}"
                );
            }
            let records = profiler.records();
            assert!(records.iter().any(|s| s.name == "mgr.place"));
            assert!(records.iter().any(|s| s.name == "io.miss"
                && s.attrs.iter().any(|(k, _)| k == "device")
                && s.attrs.iter().any(|(k, _)| k == "seek_distance_pages")));
            // Virtual exclusive time measures aggregate stream-seconds: with
            // concurrently simulated streams it meets or exceeds the
            // makespan. Wall-clock exclusive time partitions the recording
            // exactly (the event loop is single-threaded on the host).
            let excl: u64 = sum.phases.iter().map(|p| p.vt_excl_us).sum();
            assert!(excl >= sum.total_vt_us, "{excl} < {}", sum.total_vt_us);
            let wall = sum.wall.as_ref().unwrap();
            let wall_excl: u64 = wall.phases.iter().map(|p| p.excl_ns).sum();
            assert_eq!(wall_excl, wall.total_ns);
            // The run itself reports no profile section (the profiler's
            // owner embeds it) and the profiled run's report matches an
            // unprofiled one byte for byte.
            let plain = run_workload(&db, &spec).unwrap();
            assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&r).unwrap(),
                "{delivery:?}: profiling must not perturb the report"
            );
        }
    }

    #[test]
    fn unprofiled_report_has_an_empty_profile_and_slo_section() {
        let db = build_db();
        let q = q6_like("Q6", 0, 5);
        let spec = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let json = serde_json::to_string(&run_workload(&db, &spec).unwrap()).unwrap();
        assert!(json.contains("\"profile\":null"), "got: {json}");
        assert!(json.contains("\"slo\":[]"), "got: {json}");
    }

    #[test]
    fn slo_rules_are_evaluated_into_the_report() {
        use crate::slo::{SloOp, SloRule};
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let mut s = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        s.slo.rules = vec![
            SloRule {
                name: "pool locality".into(),
                metric: "hit_ratio".into(),
                op: SloOp::Ge,
                value: 0.01,
            },
            SloRule {
                name: "impossible".into(),
                metric: "hit_ratio".into(),
                op: SloOp::Ge,
                value: 2.0,
            },
        ];
        let r = run_workload(&db, &s).unwrap();
        assert_eq!(r.slo.len(), 2);
        assert!(r.slo[0].passed);
        assert!(!r.slo[1].passed);
        assert_eq!(r.slo[0].observed, r.pool.hit_ratio());
        // The section round-trips through the report JSON.
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"slo\""));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.slo, r.slo);
    }

    #[test]
    fn empty_workload_is_empty_report() {
        let db = build_db();
        let r = run_workload(&db, &spec(&db, vec![], SharingMode::Base)).unwrap();
        assert_eq!(r.queries.len(), 0);
        assert_eq!(r.makespan, SimDuration::ZERO);
    }

    #[test]
    fn report_helpers_aggregate_per_query() {
        let db = build_db();
        let q = q6_like("Q6", 0, 5);
        let r = run_workload(&db, &spec(&db, three_staggered(&q), SharingMode::Base)).unwrap();
        assert_eq!(r.query_names(), vec!["Q6".to_string()]);
        assert!(r.avg_query_time("Q6").unwrap() > SimDuration::ZERO);
        assert!(r.avg_query_time("nope").is_none());
    }
}
