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
use scanshare::obs::{Gauge, Series};
use scanshare::{
    DecisionLog, ManagerProbe, MetricsRegistry, ScanId, ScanSharingManager, SharingConfig,
    SpanProfiler, Track,
};
use scanshare_storage::{
    BufferPool, DiskStats, IdMap, PoolConfig, PoolStats, ReplacementPolicy, ResidentPage,
    SimDuration, SimTime,
};
use serde::{Deserialize, Serialize};

use crate::cost::EngineConfig;
use crate::db::Database;
use crate::error::EngineResult;
use crate::exec::ExecWorld;
use crate::faults::FaultsConfig;
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
                // Push delivery first; specs it cannot share (RID
                // fetches, order-requiring scans) fall back to pull.
                let admitted = match push.as_mut() {
                    Some(pe) => pe.admit(db, world, spec, now)?,
                    None => None,
                };
                let cur = match admitted {
                    Some(cid) => CurScan::Push(cid),
                    None => CurScan::Pull(Box::new(ScanExec::start(db, world, spec, now)?)),
                };
                if let Some(tr) = &world.tracer {
                    let (scan, placement) = match &cur {
                        CurScan::Pull(scan) => (scan.scan_id(), scan.placement_label()),
                        CurScan::Push(cid) => {
                            let pe = push.as_ref().expect("push scan implies push engine");
                            (pe.scan_id(*cid), pe.placement_label(*cid))
                        }
                    };
                    if let Some(scan) = scan {
                        tr.record(
                            now,
                            crate::trace::TraceEvent::ScanStarted {
                                scan,
                                query: q.name.clone(),
                                stream: self.stream_idx,
                                placement: placement.to_string(),
                            },
                        );
                    }
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
/// can be traced, decision-logged, and watched at the same time.
#[derive(Default)]
pub struct RunHooks {
    /// Event tracer; its retained records are embedded in the report.
    /// Clones share the log, so a caller that keeps a handle reads the
    /// events afterwards.
    pub tracer: Option<crate::trace::Tracer>,
    /// Decision-provenance log handed to the sharing manager. When
    /// `None`, sharing-mode runs still attach a fresh log (capacity
    /// [`DEFAULT_DECISION_CAP`]) so every report can be explained.
    pub decisions: Option<DecisionLog>,
    /// Callback invoked at every metrics-sample tick and once at the
    /// makespan, in event-loop order.
    pub observer: Option<WatchObserver>,
    /// Span profiler threaded through the run (`engine.run`, per-extent
    /// `scan.step` trees, manager and I/O annotations). When `None` —
    /// the default — no span machinery runs at all and the report stays
    /// byte-identical to pre-profiling builds.
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
    world.tracer = hooks.tracer;
    if let Some(p) = &profiler {
        world.profiler = Some(p.clone());
        if let Some(m) = &mgr {
            m.attach_profiler(p.clone());
        }
    }
    if !spec.faults.is_empty() {
        world.enable_faults(&spec.faults);
    }
    // Push delivery rides on the sharing manager; base modes and pull
    // configs run the exact pre-push code path (and report bytes).
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
                sampler.sample_metrics(&world, next_sample);
                if let Some(obs) = &observer {
                    obs(&watch_frame(&world, mgr.as_deref(), &tasks, next_sample));
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
    sampler.sample_metrics(&world, makespan);
    if let Some(obs) = &observer {
        obs(&watch_frame(&world, mgr.as_deref(), &tasks, makespan));
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
    // When fault injection was armed, mirror its counters into the
    // registry so they land in the snapshot alongside everything else.
    // Fault-free runs register nothing, keeping their snapshot (and
    // report bytes) untouched.
    let faults = world.fault_summary().unwrap_or_default();
    if world.faults_enabled() {
        let reg = &world.metrics;
        reg.counter("faults.transient_errors")
            .add(faults.transient_errors);
        reg.counter("faults.permanent_errors")
            .add(faults.permanent_errors);
        reg.counter("faults.delays_injected")
            .add(faults.delays_injected);
        reg.counter("faults.retries").add(faults.retries);
        reg.counter("faults.timeouts").add(faults.timeouts);
        reg.counter("faults.scans_aborted")
            .add(faults.scans_aborted);
    }
    let trace = world
        .tracer
        .as_ref()
        .map(|t| t.records())
        .unwrap_or_default();
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
        metrics: world.metrics.snapshot(makespan),
        trace,
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

/// Assemble the [`WatchFrame`] for one sample tick.
fn watch_frame(
    world: &ExecWorld<'_>,
    mgr: Option<&ScanSharingManager>,
    tasks: &[StreamTask<'_>],
    at: SimTime,
) -> WatchFrame {
    WatchFrame {
        at,
        probe: mgr.map(|m| m.probe()),
        pool: world.pool.stats().clone(),
        pool_capacity: world.pool.capacity(),
        resident: world.pool.resident_pages(),
        disk: world.disk.stats(),
        queries_done: tasks.iter().map(|t| t.records.len()).sum(),
    }
}

/// Series handles by id: `name(id)` is looked up in the registry the
/// first time `id` is pushed to and kept under `id` after that.
struct SeriesById<K> {
    registry: MetricsRegistry,
    name: fn(K) -> String,
    handles: IdMap<K, Series>,
}

impl<K: Copy + Eq + std::hash::Hash> SeriesById<K> {
    fn push(&mut self, id: K, at: SimTime, value: f64) {
        let (registry, name) = (&self.registry, self.name);
        let series = self.handles.entry(id);
        series
            .or_insert_with(|| registry.series(&name(id)))
            .push(at, value);
    }
}

/// The interval sampler's *series handles*: every instrument it records
/// into, taken out of the registry once — the fixed ones when the run
/// starts, a group's or a scan's the first time a probe shows it — so a
/// tick costs one push per signal, however many names the run has
/// registered by then.
struct Sampler {
    pool_hit_ratio: Series,
    pool_evictions: Series,
    disk_seek_distance: Series,
    /// `mgr.groups`, `mgr.active_scans` and `mgr.shared_groups`: only a
    /// run with a sharing manager registers them.
    mgr: Option<(Gauge, Gauge, Series)>,
    group_distance: SeriesById<AnchorId>,
    scan_slowdown: SeriesById<ScanId>,
}

impl Sampler {
    fn new(world: &ExecWorld<'_>) -> Sampler {
        let registry = &world.metrics;
        let mgr = || {
            (
                registry.gauge("mgr.groups"),
                registry.gauge("mgr.active_scans"),
                registry.series("mgr.shared_groups"),
            )
        };
        Sampler {
            pool_hit_ratio: registry.series("pool.hit_ratio"),
            pool_evictions: registry.series("pool.evictions"),
            disk_seek_distance: registry.series("disk.seek_distance"),
            mgr: world.mgr.is_some().then(mgr),
            group_distance: SeriesById {
                registry: registry.clone(),
                name: |anchor| format!("group.{}.distance_pages", anchor.0),
                handles: IdMap::default(),
            },
            scan_slowdown: SeriesById {
                registry: registry.clone(),
                name: |scan| format!("scan.{}.slowdown_frac", scan.0),
                handles: IdMap::default(),
            },
        }
    }

    /// Record one observation of every sampled signal at virtual time
    /// `at`: pool hit ratio and evictions, cumulative disk seek distance,
    /// and — when a sharing manager is attached — the group count,
    /// active-scan count, each group's leader-trailer distance
    /// (`group.<anchor>.distance_pages`) and each scan's accumulated
    /// slowdown as a fraction of its fairness-cap budget
    /// (`scan.<id>.slowdown_frac`).
    fn sample_metrics(&mut self, world: &ExecWorld<'_>, at: SimTime) {
        let pool = world.pool.stats();
        self.pool_hit_ratio.push(at, pool.hit_ratio());
        self.pool_evictions.push(at, pool.evictions as f64);
        self.disk_seek_distance
            .push(at, world.disk.stats().seek_distance_pages as f64);
        let (Some(mgr), Some((groups, active_scans, shared_groups))) = (&world.mgr, &self.mgr)
        else {
            return;
        };
        let probe = mgr.probe();
        groups.set(probe.groups.len() as f64);
        active_scans.set(probe.scans.len() as f64);
        shared_groups.push(at, probe.shared_groups() as f64);
        for g in &probe.groups {
            self.group_distance.push(g.anchor, at, g.extent as f64);
        }
        for s in &probe.scans {
            self.scan_slowdown.push(s.id, at, s.slowdown_frac);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CpuClass;
    use crate::query::{Access, AggSpec, Pred, ScanSpec};
    use scanshare_relstore::{ColType, Column, Schema, Value};

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
    fn tracer_captures_sharing_decisions() {
        use crate::trace::{TraceEvent, Tracer};
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let spec = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let tracer = Tracer::new(1024);
        let hooks = RunHooks {
            tracer: Some(tracer.clone()),
            ..RunHooks::default()
        };
        run_workload_hooked(&db, &spec, hooks).unwrap();
        let records = tracer.records();
        let starts = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ScanStarted { .. }))
            .count();
        let finishes = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ScanFinished { .. }))
            .count();
        assert_eq!(starts, 3);
        assert_eq!(finishes, 3);
        // At least one scan joined another (captured in the label).
        assert!(records.iter().any(|r| matches!(
            &r.event,
            TraceEvent::ScanStarted { placement, .. } if placement.contains("join")
        )));
        // Rendering mentions the query.
        assert!(tracer.render().contains("Q6"));
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

    /// The interval sampler as first written — every series looked up in
    /// the registry by a freshly formatted name at every tick — fed from
    /// the watch frames, which see the same probe and counters at the
    /// same instants as the run's own sampler.
    fn sample_by_name(reg: &MetricsRegistry, f: &WatchFrame) {
        reg.series("pool.hit_ratio").push(f.at, f.pool.hit_ratio());
        reg.series("pool.evictions")
            .push(f.at, f.pool.evictions as f64);
        reg.series("disk.seek_distance")
            .push(f.at, f.disk.seek_distance_pages as f64);
        let Some(probe) = &f.probe else { return };
        reg.gauge("mgr.groups").set(probe.groups.len() as f64);
        reg.gauge("mgr.active_scans").set(probe.scans.len() as f64);
        reg.series("mgr.shared_groups")
            .push(f.at, probe.shared_groups() as f64);
        for g in &probe.groups {
            reg.series(&format!("group.{}.distance_pages", g.anchor.0))
                .push(f.at, g.extent as f64);
        }
        for s in &probe.scans {
            reg.series(&format!("scan.{}.slowdown_frac", s.id.0))
                .push(f.at, s.slowdown_frac);
        }
    }

    /// Run `spec` and return its report beside the gauges and series the
    /// by-name sampler records over the same run.
    fn run_beside_the_by_name_sampler(
        db: &Database,
        spec: &WorkloadSpec,
    ) -> (RunReport, scanshare::MetricsSnapshot) {
        let reference = MetricsRegistry::new();
        let sink = reference.clone();
        let hooks = RunHooks {
            observer: Some(Arc::new(move |f: &WatchFrame| sample_by_name(&sink, f))),
            ..RunHooks::default()
        };
        let r = run_workload_hooked(db, spec, hooks).unwrap();
        let sampled = reference.snapshot(SimTime::ZERO + r.makespan);
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
        let expected = scanshare::MetricsSnapshot {
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
    fn traced_run_embeds_its_events_in_the_report() {
        use crate::trace::{spans, Tracer};
        let db = build_db();
        let q = q6_like("Q6", 0, 11);
        let spec = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let tracer = Tracer::new(4096);
        let hooks = RunHooks {
            tracer: Some(tracer.clone()),
            ..RunHooks::default()
        };
        let r = run_workload_hooked(&db, &spec, hooks).unwrap();
        assert_eq!(r.trace.len(), tracer.records().len());
        assert!(!r.trace.is_empty());
        let spans = spans(&r.trace);
        assert_eq!(spans.len(), 3);
        assert!(spans
            .iter()
            .all(|s| s.start.is_some() && s.finish.is_some()));
        // An untraced run embeds nothing.
        let quiet = run_workload(&db, &spec).unwrap();
        assert!(quiet.trace.is_empty());
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
        assert!(r0.faults.is_empty());
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

    #[test]
    fn empty_fault_section_is_byte_identical_to_no_section() {
        let db = build_db();
        let q = q6_like("Q6", 0, 5);
        let clean = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let mut armed = clean.clone();
        armed.faults = FaultsConfig::default();
        let a = run_workload(&db, &clean).unwrap();
        let b = run_workload(&db, &armed).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "an empty fault plan must not perturb the report"
        );
        // And the report JSON carries no faults section at all.
        assert!(!serde_json::to_string(&a).unwrap().contains("\"faults\""));
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
    fn unprofiled_report_has_no_profile_or_slo_section() {
        let db = build_db();
        let q = q6_like("Q6", 0, 5);
        let spec = spec(
            &db,
            three_staggered(&q),
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let json = serde_json::to_string(&run_workload(&db, &spec).unwrap()).unwrap();
        assert!(!json.contains("\"profile\""));
        assert!(!json.contains("\"slo\""));
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
