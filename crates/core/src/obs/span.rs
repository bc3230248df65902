//! Hierarchical, dual-clock execution spans and their exporters.
//!
//! A run's metrics snapshot answers *how much* (counters, histograms,
//! series); spans answer *where the time went*. A [`SpanProfiler`]
//! records a forest of named spans, each carrying **two clocks**:
//!
//! * **virtual time** (`vt_*_us`, [`SimTime`] microseconds) — the
//!   simulator's deterministic clock. Byte-stable across runs, machines,
//!   and `--jobs` values; everything gated on determinism compares only
//!   these fields.
//! * **wall-clock time** (`wall_*_ns`, nanoseconds since the profiler's
//!   epoch) — how long the host actually took. Never gated, never
//!   compared across runs; quarantined under its own `wall` key so it
//!   can be stripped (see [`ProfileSummary::virtual_only`]).
//!
//! Parenting uses the profiler's open-span stack: the engine's event
//! loop is single-threaded, so `begin` inside an open span nests under
//! it regardless of which [`Track`] either span displays on. Phases
//! that advance the event clock (`scan.step`, `extent.fetch`,
//! `cpu.process`, `throttle.wait`) are *range* spans; overlapping or
//! asynchronous sub-events (per-run miss I/O, retries, prefetch,
//! manager placements) are *instant* spans (`vt_start == vt_end`)
//! carrying attributes — this guarantees begin/end balance and
//! per-track monotone range timestamps by construction (instants may
//! sit anywhere inside their parent's range; viewers sort by `ts`).
//!
//! Exporters: [`perfetto_trace`] renders the forest as Chrome
//! trace-event JSON (openable directly in `ui.perfetto.dev`, one track
//! per scan stream plus driver and manager tracks), and
//! [`SpanProfiler::summary`] folds it into a [`ProfileSummary`]
//! (per-phase inclusive/exclusive time, collapsed flamegraph stacks,
//! hottest spans) that `RunReport` can embed.

use parking_lot::Mutex;
use scanshare_storage::SimTime;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Default maximum number of recorded spans per profiler. Past the cap
/// new spans are counted in [`SpanProfiler::dropped`] instead of
/// recorded, so a pathological workload cannot exhaust memory.
pub const DEFAULT_SPAN_CAP: usize = 1 << 16;

/// How many spans [`ProfileSummary::hottest`] retains.
pub const HOTTEST_SPANS: usize = 10;

/// Which display track a span renders on in the Perfetto UI. Tracks
/// affect *display only* — parenting follows the profiler's open-span
/// stack, so a manager span still nests under the scan step that
/// triggered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Track {
    /// The run driver: spec parsing, warmup, the engine event loop.
    Driver,
    /// The scan-sharing manager: placement and re-grouping decisions.
    Manager,
    /// One scan stream (by stream index).
    Stream(usize),
}

impl Track {
    /// Stable Perfetto thread id for the track.
    pub fn tid(&self) -> u64 {
        match self {
            Track::Driver => 0,
            Track::Manager => 1,
            Track::Stream(i) => 2 + *i as u64,
        }
    }

    /// Human-readable track name (the Perfetto thread name).
    pub fn label(&self) -> String {
        match self {
            Track::Driver => "driver".to_string(),
            Track::Manager => "manager".to_string(),
            Track::Stream(i) => format!("stream {i}"),
        }
    }
}

/// Handle to an open span, returned by [`SpanProfiler::begin`] and
/// consumed by [`SpanProfiler::end`]. A profiler past its record cap
/// hands out inert ids whose `end`/`attr` calls are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

const DROPPED_ID: u64 = u64::MAX;

impl SpanId {
    /// An inert id: `end`/`attr` on it do nothing. Useful as a default
    /// when profiling is disabled.
    pub fn none() -> Self {
        SpanId(DROPPED_ID)
    }
}

/// One recorded span. `vt_*_us` fields are deterministic virtual time;
/// `wall_*_ns` fields are host wall-clock nanoseconds since the
/// profiler's epoch and are never compared across runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Dense id (index in recording order).
    pub id: u64,
    /// Enclosing span's id, if any.
    pub parent: Option<u64>,
    /// Phase name (e.g. `scan.step`, `extent.fetch`, `io.miss`).
    pub name: String,
    /// Display track.
    pub track: Track,
    /// Virtual start, microseconds.
    pub vt_start_us: u64,
    /// Virtual end, microseconds (`== vt_start_us` for instants).
    pub vt_end_us: u64,
    /// Wall-clock start, nanoseconds since the profiler epoch.
    pub wall_start_ns: u64,
    /// Wall-clock end, nanoseconds since the profiler epoch.
    pub wall_end_ns: u64,
    /// `(key, value)` attributes (group ids, policy names, devices…).
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Virtual duration in microseconds.
    pub fn vt_us(&self) -> u64 {
        self.vt_end_us.saturating_sub(self.vt_start_us)
    }

    /// Wall duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.wall_end_ns.saturating_sub(self.wall_start_ns)
    }

    /// Whether this is an instant (zero virtual width) span.
    pub fn is_instant(&self) -> bool {
        self.vt_start_us == self.vt_end_us
    }
}

#[derive(Debug)]
struct ProfilerInner {
    records: Vec<SpanRecord>,
    stack: Vec<u64>,
    cap: usize,
    dropped: u64,
}

/// A cloneable span recorder. All clones share state; recording costs
/// one short mutex hold. The engine threads one of these through a run
/// only when profiling was requested — a `None` profiler is completely
/// pay-for-what-you-use.
#[derive(Debug, Clone)]
pub struct SpanProfiler {
    inner: Arc<Mutex<ProfilerInner>>,
    epoch: Instant,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        SpanProfiler::new(DEFAULT_SPAN_CAP)
    }
}

impl SpanProfiler {
    /// A fresh profiler retaining at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        SpanProfiler {
            inner: Arc::new(Mutex::new(ProfilerInner {
                records: Vec::new(),
                stack: Vec::new(),
                cap,
                dropped: 0,
            })),
            epoch: Instant::now(),
        }
    }

    fn wall_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span starting at `vt`, nested under the open span, on
    /// `track` (`None`: the open span's track, [`Track::Driver`] when
    /// nothing is open). A range span becomes the open span until
    /// [`SpanProfiler::end`]; an instant does not.
    fn push(&self, track: Option<Track>, name: &str, vt: SimTime, range: bool) -> SpanId {
        let wall = self.wall_now();
        let mut g = self.inner.lock();
        if g.records.len() >= g.cap {
            g.dropped += 1;
            return SpanId(DROPPED_ID);
        }
        let id = g.records.len() as u64;
        let parent = g.stack.last().copied();
        let open_track = parent.map_or(Track::Driver, |p| g.records[p as usize].track);
        g.records.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            track: track.unwrap_or(open_track),
            vt_start_us: vt.as_micros(),
            vt_end_us: vt.as_micros(),
            wall_start_ns: wall,
            wall_end_ns: wall,
            attrs: Vec::new(),
        });
        if range {
            g.stack.push(id);
        }
        SpanId(id)
    }

    /// Open a range span on an explicit track at virtual time `vt`. The
    /// span nests under the currently open span (if any) and becomes
    /// the open span until [`SpanProfiler::end`].
    pub fn begin(&self, track: Track, name: &str, vt: SimTime) -> SpanId {
        self.push(Some(track), name, vt, true)
    }

    /// Open a range span inheriting the open span's track
    /// ([`Track::Driver`] when nothing is open).
    pub fn begin_child(&self, name: &str, vt: SimTime) -> SpanId {
        self.push(None, name, vt, true)
    }

    /// Close span `id` at virtual time `vt`. Also closes any child
    /// spans left open beneath it (tolerant of early exits on error
    /// paths). A backwards `vt` is clamped to the span's start.
    pub fn end(&self, id: SpanId, vt: SimTime) {
        if id.0 == DROPPED_ID {
            return;
        }
        let wall = self.wall_now();
        let mut g = self.inner.lock();
        while let Some(top) = g.stack.pop() {
            let rec = &mut g.records[top as usize];
            rec.vt_end_us = vt.as_micros().max(rec.vt_start_us);
            rec.wall_end_ns = wall.max(rec.wall_start_ns);
            if top == id.0 {
                break;
            }
        }
    }

    /// Record an instant (zero virtual width) span at `vt`, nested
    /// under the open span and inheriting its track.
    pub fn instant(&self, name: &str, vt: SimTime) -> SpanId {
        self.push(None, name, vt, false)
    }

    /// Record an instant span on an explicit track.
    pub fn instant_on(&self, track: Track, name: &str, vt: SimTime) -> SpanId {
        self.push(Some(track), name, vt, false)
    }

    /// Attach a `(key, value)` attribute to span `id`.
    pub fn attr(&self, id: SpanId, key: &str, value: impl Into<String>) {
        if id.0 == DROPPED_ID {
            return;
        }
        let mut g = self.inner.lock();
        if let Some(rec) = g.records.get_mut(id.0 as usize) {
            rec.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped past the record cap.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Snapshot every recorded span, in recording order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.lock().records.clone()
    }

    /// Render the recorded forest as Chrome trace-event JSON (see
    /// [`perfetto_trace`]).
    pub fn perfetto(&self) -> serde::Value {
        perfetto_trace(&self.records())
    }

    /// Fold the recorded forest into a [`ProfileSummary`].
    pub fn summary(&self) -> ProfileSummary {
        summarize(&self.records(), self.dropped())
    }
}

// ---------------------------------------------------------------------
// Perfetto / Chrome trace-event export
// ---------------------------------------------------------------------

fn event_base(ph: &str, ts: u64, tid: u64) -> serde::Map {
    let mut m = serde::Map::new();
    m.insert("ph", serde::Value::String(ph.to_string()));
    m.insert("ts", serde::Value::Number(serde::Number::U64(ts)));
    m.insert("pid", serde::Value::Number(serde::Number::U64(1)));
    m.insert("tid", serde::Value::Number(serde::Number::U64(tid)));
    m
}

fn args_object(attrs: &[(String, String)]) -> serde::Value {
    let mut args = serde::Map::new();
    for (k, v) in attrs {
        args.insert(k.clone(), serde::Value::String(v.clone()));
    }
    serde::Value::Object(args)
}

/// Export spans as a Chrome trace-event JSON object
/// (`{"traceEvents": [...]}`), the format `ui.perfetto.dev` and
/// `chrome://tracing` open directly.
///
/// Tracks become named threads of one process (`"M"` metadata events).
/// Range spans are emitted as `"B"`/`"E"` pairs by a depth-first walk
/// of the span forest, so begin/end events balance and nest exactly
/// like the recorded parent relationships; childless instants are
/// emitted as thread-scoped `"i"` events. Timestamps are **virtual**
/// microseconds — the deterministic simulator clock — so the same run
/// always exports byte-identical event timing.
pub fn perfetto_trace(records: &[SpanRecord]) -> serde::Value {
    let mut events: Vec<serde::Value> = Vec::new();

    // One thread_name metadata event per distinct track, tid-sorted.
    let mut tracks: Vec<Track> = Vec::new();
    for r in records {
        if !tracks.contains(&r.track) {
            tracks.push(r.track);
        }
    }
    tracks.sort_by_key(|t| t.tid());
    for t in &tracks {
        let mut m = serde::Map::new();
        m.insert("name", serde::Value::String("thread_name".to_string()));
        m.insert("ph", serde::Value::String("M".to_string()));
        m.insert("pid", serde::Value::Number(serde::Number::U64(1)));
        m.insert("tid", serde::Value::Number(serde::Number::U64(t.tid())));
        let mut args = serde::Map::new();
        args.insert("name", serde::Value::String(t.label()));
        m.insert("args", serde::Value::Object(args));
        events.push(serde::Value::Object(m));
    }

    // Children in recording order == virtual-time order per parent.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        match r.parent {
            Some(p) if (p as usize) < records.len() => children[p as usize].push(i),
            _ => roots.push(i),
        }
    }

    // Iterative DFS: `(index, entered)`.
    let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&i| (i, false)).collect();
    while let Some((i, entered)) = stack.pop() {
        let r = &records[i];
        if entered {
            events.push(serde::Value::Object(event_base(
                "E",
                r.vt_end_us,
                r.track.tid(),
            )));
            continue;
        }
        if r.is_instant() && children[i].is_empty() {
            let mut m = serde::Map::new();
            m.insert("name", serde::Value::String(r.name.clone()));
            let base = event_base("i", r.vt_start_us, r.track.tid());
            for (k, v) in base.iter() {
                m.insert(k, v.clone());
            }
            m.insert("s", serde::Value::String("t".to_string()));
            if !r.attrs.is_empty() {
                m.insert("args", args_object(&r.attrs));
            }
            events.push(serde::Value::Object(m));
            continue;
        }
        let mut m = serde::Map::new();
        m.insert("name", serde::Value::String(r.name.clone()));
        let base = event_base("B", r.vt_start_us, r.track.tid());
        for (k, v) in base.iter() {
            m.insert(k, v.clone());
        }
        if !r.attrs.is_empty() {
            m.insert("args", args_object(&r.attrs));
        }
        events.push(serde::Value::Object(m));
        stack.push((i, true));
        for &c in children[i].iter().rev() {
            stack.push((c, false));
        }
    }

    let mut top = serde::Map::new();
    top.insert("traceEvents", serde::Value::Array(events));
    serde::Value::Object(top)
}

/// Validate a value against the subset of the Chrome trace-event format
/// this module emits: a top-level `traceEvents` array whose events have
/// a known phase (`B`/`E`/`i`/`M`), numeric `ts`/`pid`/`tid` (except
/// `M`), balanced and properly nested `B`/`E` pairs per track, and
/// per-track non-decreasing `B`/`E` timestamps. Instants are exempt
/// from the ordering check: the format lets viewers sort events by
/// `ts`, and an async marker (a prefetch issued while the CPU span is
/// still open) legitimately carries an earlier timestamp than the
/// event emitted just before it.
pub fn validate_chrome_trace(v: &serde::Value) -> Result<(), String> {
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or("missing traceEvents array")?;
    // Per-tid open B-span name stack and last timestamp.
    let mut open: Vec<(u64, Vec<String>)> = Vec::new();
    let mut last_ts: Vec<(u64, u64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_object()
            .ok_or_else(|| format!("event {i} not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("event {i} missing ph"))?;
        match ph {
            "M" => continue,
            "B" | "E" | "i" => {}
            other => return Err(format!("event {i} has unknown phase {other:?}")),
        }
        let ts = obj
            .get("ts")
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("event {i} missing numeric ts"))?;
        let tid = obj
            .get("tid")
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("event {i} missing numeric tid"))?;
        if obj.get("pid").and_then(|p| p.as_u64()).is_none() {
            return Err(format!("event {i} missing numeric pid"));
        }
        if ph != "i" {
            match last_ts.iter_mut().find(|(t, _)| *t == tid) {
                Some((_, prev)) => {
                    if ts < *prev {
                        return Err(format!(
                            "event {i}: ts {ts} goes backwards on tid {tid} (prev {prev})"
                        ));
                    }
                    *prev = ts;
                }
                None => last_ts.push((tid, ts)),
            }
        }
        let stack = match open.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, s)) => s,
            None => {
                open.push((tid, Vec::new()));
                &mut open.last_mut().unwrap().1
            }
        };
        match ph {
            "B" => {
                let name = obj
                    .get("name")
                    .and_then(|n| n.as_str())
                    .ok_or_else(|| format!("event {i}: B without a name"))?;
                stack.push(name.to_string());
            }
            "E" => {
                if stack.pop().is_none() {
                    return Err(format!("event {i}: E without a matching B on tid {tid}"));
                }
            }
            "i" => {
                if obj.get("name").and_then(|n| n.as_str()).is_none() {
                    return Err(format!("event {i}: instant without a name"));
                }
            }
            _ => unreachable!(),
        }
    }
    for (tid, stack) in &open {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid} has {} unbalanced B event(s): {stack:?}",
                stack.len()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Profile summary
// ---------------------------------------------------------------------

/// Virtual-time cost of one phase (all spans sharing a name).
/// Deterministic: derived solely from virtual timestamps.
///
/// Exclusive virtual time is *aggregate stream time*: concurrently
/// simulated spans (two streams stepping over the same virtual
/// interval) each count their own duration, so phase exclusives can sum
/// past the root spans' total — exactly like CPU-seconds exceeding
/// elapsed seconds on a multicore host. Wall-clock exclusives (the
/// recording host is single-threaded) partition the total exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Phase (span) name.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Inclusive virtual time (children included), microseconds.
    pub vt_incl_us: u64,
    /// Exclusive virtual time (children subtracted), microseconds.
    pub vt_excl_us: u64,
}

/// One collapsed flamegraph stack: the `;`-joined path from root to a
/// span, with its aggregate exclusive virtual time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackLine {
    /// `root;child;leaf` path.
    pub stack: String,
    /// Spans aggregated into this line.
    pub count: u64,
    /// Aggregate exclusive virtual time, microseconds.
    pub vt_excl_us: u64,
}

/// One of the individually hottest spans by virtual duration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HotSpan {
    /// Span name.
    pub name: String,
    /// Display track.
    pub track: Track,
    /// Virtual start, microseconds.
    pub vt_start_us: u64,
    /// Virtual duration, microseconds.
    pub vt_us: u64,
}

/// Wall-clock cost of one phase. Host-dependent; never gated.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WallPhase {
    /// Phase (span) name.
    pub name: String,
    /// Inclusive wall time, nanoseconds.
    pub incl_ns: u64,
    /// Exclusive wall time, nanoseconds.
    pub excl_ns: u64,
}

/// The wall-clock side of a profile, quarantined under its own key so
/// deterministic comparisons can strip it in one move.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WallProfile {
    /// Total wall time across root spans, nanoseconds.
    pub total_ns: u64,
    /// Per-phase wall costs. Exclusive times partition the roots'
    /// inclusive time, so they sum to `total_ns`.
    pub phases: Vec<WallPhase>,
}

/// A folded profile: per-phase costs, collapsed stacks, hottest spans.
/// Everything outside [`ProfileSummary::wall`] is derived from virtual
/// time only and is byte-identical across machines and `--jobs` values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Spans recorded.
    pub spans: u64,
    /// Spans dropped past the record cap.
    pub dropped: u64,
    /// Total inclusive virtual time across root spans, microseconds.
    pub total_vt_us: u64,
    /// Per-phase virtual costs, hottest (by exclusive time) first.
    pub phases: Vec<PhaseStat>,
    /// Collapsed flamegraph stacks, sorted by path.
    pub stacks: Vec<StackLine>,
    /// The [`HOTTEST_SPANS`] individually longest spans.
    pub hottest: Vec<HotSpan>,
    /// Wall-clock costs (`None` once stripped for deterministic
    /// comparison).
    pub wall: Option<WallProfile>,
}

impl ProfileSummary {
    /// Drop the wall-clock section, leaving only deterministic
    /// virtual-time fields — the form compared across `--jobs` values.
    pub fn virtual_only(mut self) -> Self {
        self.wall = None;
        self
    }

    /// Render the collapsed stacks in flamegraph.pl's folded format
    /// (`path;to;frame <exclusive-µs>` per line).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for s in &self.stacks {
            out.push_str(&s.stack);
            out.push(' ');
            out.push_str(&s.vt_excl_us.to_string());
            out.push('\n');
        }
        out
    }
}

/// Fold span records into a [`ProfileSummary`]. Exclusive time is a
/// span's duration minus its direct children's inclusive durations
/// (saturating); phase tables aggregate by span name, stacks by full
/// root-to-span path.
pub fn summarize(records: &[SpanRecord], dropped: u64) -> ProfileSummary {
    let n = records.len();
    let mut child_vt = vec![0u64; n];
    let mut child_wall = vec![0u64; n];
    for r in records {
        if let Some(p) = r.parent {
            if (p as usize) < n {
                child_vt[p as usize] += r.vt_us();
                child_wall[p as usize] += r.wall_ns();
            }
        }
    }

    // Root-to-span paths, built in one pass (parents precede children).
    let mut paths: Vec<String> = Vec::with_capacity(n);
    for r in records {
        let path = match r.parent {
            Some(p) if (p as usize) < paths.len() => {
                format!("{};{}", paths[p as usize], r.name)
            }
            _ => r.name.clone(),
        };
        paths.push(path);
    }

    let mut phases: Vec<PhaseStat> = Vec::new();
    let mut wall_phases: Vec<WallPhase> = Vec::new();
    let mut stacks: Vec<StackLine> = Vec::new();
    let mut total_vt = 0u64;
    let mut total_wall = 0u64;
    for (i, r) in records.iter().enumerate() {
        let vt_excl = r.vt_us().saturating_sub(child_vt[i]);
        let wall_excl = r.wall_ns().saturating_sub(child_wall[i]);
        if r.parent.is_none() {
            total_vt += r.vt_us();
            total_wall += r.wall_ns();
        }
        match phases.iter_mut().find(|p| p.name == r.name) {
            Some(p) => {
                p.count += 1;
                p.vt_incl_us += r.vt_us();
                p.vt_excl_us += vt_excl;
            }
            None => phases.push(PhaseStat {
                name: r.name.clone(),
                count: 1,
                vt_incl_us: r.vt_us(),
                vt_excl_us: vt_excl,
            }),
        }
        match wall_phases.iter_mut().find(|p| p.name == r.name) {
            Some(p) => {
                p.incl_ns += r.wall_ns();
                p.excl_ns += wall_excl;
            }
            None => wall_phases.push(WallPhase {
                name: r.name.clone(),
                incl_ns: r.wall_ns(),
                excl_ns: wall_excl,
            }),
        }
        match stacks.iter_mut().find(|s| s.stack == paths[i]) {
            Some(s) => {
                s.count += 1;
                s.vt_excl_us += vt_excl;
            }
            None => stacks.push(StackLine {
                stack: paths[i].clone(),
                count: 1,
                vt_excl_us: vt_excl,
            }),
        }
    }
    phases.sort_by(|a, b| b.vt_excl_us.cmp(&a.vt_excl_us).then(a.name.cmp(&b.name)));
    wall_phases.sort_by(|a, b| {
        let pa = phases.iter().position(|p| p.name == a.name);
        let pb = phases.iter().position(|p| p.name == b.name);
        pa.cmp(&pb)
    });
    stacks.sort_by(|a, b| a.stack.cmp(&b.stack));

    let mut hottest: Vec<&SpanRecord> = records.iter().collect();
    hottest.sort_by(|a, b| b.vt_us().cmp(&a.vt_us()).then(a.id.cmp(&b.id)));
    let hottest = hottest
        .into_iter()
        .take(HOTTEST_SPANS)
        .map(|r| HotSpan {
            name: r.name.clone(),
            track: r.track,
            vt_start_us: r.vt_start_us,
            vt_us: r.vt_us(),
        })
        .collect();

    ProfileSummary {
        spans: n as u64,
        dropped,
        total_vt_us: total_vt,
        phases,
        stacks,
        hottest,
        wall: Some(WallProfile {
            total_ns: total_wall,
            phases: wall_phases,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn spans_nest_via_the_open_stack_across_tracks() {
        let p = SpanProfiler::default();
        let run = p.begin(Track::Driver, "run", t(0));
        let step = p.begin(Track::Stream(0), "scan.step", t(10));
        let fetch = p.begin_child("extent.fetch", t(10));
        let miss = p.instant("io.miss", t(10));
        p.attr(miss, "device", "0");
        let _place = p.instant_on(Track::Manager, "mgr.place", t(10));
        p.end(fetch, t(30));
        p.end(step, t(40));
        p.end(run, t(50));

        let recs = p.records();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[1].parent, Some(0));
        assert_eq!(recs[2].parent, Some(1));
        assert_eq!(recs[2].track, Track::Stream(0), "child inherits track");
        assert_eq!(recs[3].parent, Some(2), "instant parents to open span");
        assert_eq!(recs[4].parent, Some(2));
        assert_eq!(recs[4].track, Track::Manager);
        assert_eq!(recs[3].attrs, vec![("device".to_string(), "0".to_string())]);
        assert!(recs[3].is_instant());
        assert_eq!(recs[1].vt_us(), 30);
    }

    #[test]
    fn end_closes_dangling_children() {
        let p = SpanProfiler::default();
        let outer = p.begin(Track::Driver, "outer", t(0));
        let _inner = p.begin(Track::Driver, "inner", t(5));
        // Error path: outer ends without the inner being closed.
        p.end(outer, t(20));
        let recs = p.records();
        assert_eq!(recs[1].vt_end_us, 20);
        assert_eq!(recs[0].vt_end_us, 20);
        // Stack is empty again: a new span is a root.
        let next = p.begin(Track::Driver, "next", t(30));
        p.end(next, t(31));
        assert_eq!(p.records()[2].parent, None);
    }

    #[test]
    fn record_cap_drops_and_counts() {
        let p = SpanProfiler::new(2);
        let a = p.begin(Track::Driver, "a", t(0));
        let _b = p.instant("i", t(1));
        let c = p.begin(Track::Driver, "c", t(2));
        p.attr(c, "k", "v");
        p.end(c, t(3));
        p.end(a, t(4));
        assert_eq!(p.len(), 2);
        assert_eq!(p.dropped(), 1);
        // The dropped id is inert everywhere.
        assert_eq!(c, SpanId::none());
    }

    #[test]
    fn perfetto_export_validates_and_balances() {
        let p = SpanProfiler::default();
        let run = p.begin(Track::Driver, "run", t(0));
        for step in 0..3u64 {
            let s = p.begin(Track::Stream(0), "scan.step", t(step * 100));
            let f = p.begin_child("extent.fetch", t(step * 100));
            p.instant("io.miss", t(step * 100));
            p.end(f, t(step * 100 + 40));
            let c = p.begin_child("cpu.process", t(step * 100 + 40));
            p.end(c, t(step * 100 + 70));
            p.end(s, t(step * 100 + 70));
        }
        p.end(run, t(300));

        let trace = p.perfetto();
        validate_chrome_trace(&trace).expect("valid trace");
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata + (run B/E) + 3 * (step B/E + fetch B/E + miss i + cpu B/E)
        assert_eq!(events.len(), 2 + 2 + 3 * 7);
        let json = serde_json::to_string(&trace).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"stream 0\""));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace(&serde::Value::Null).is_err());
        // Unbalanced: B without E.
        let p = SpanProfiler::default();
        let mut recs = {
            let a = p.begin(Track::Driver, "a", t(0));
            p.end(a, t(10));
            p.records()
        };
        recs[0].vt_end_us = 5;
        let good = perfetto_trace(&recs);
        assert!(validate_chrome_trace(&good).is_ok());
        let mut evs = good
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        evs.pop(); // drop the E
        let mut m = serde::Map::new();
        m.insert("traceEvents", serde::Value::Array(evs));
        let err = validate_chrome_trace(&serde::Value::Object(m)).unwrap_err();
        assert!(err.contains("unbalanced"), "got: {err}");
    }

    #[test]
    fn summary_partitions_time_and_strips_wall() {
        let p = SpanProfiler::default();
        let run = p.begin(Track::Driver, "run", t(0));
        let s1 = p.begin(Track::Stream(0), "scan.step", t(0));
        p.end(s1, t(60));
        let s2 = p.begin(Track::Stream(1), "scan.step", t(60));
        let f = p.begin_child("extent.fetch", t(60));
        p.end(f, t(90));
        p.end(s2, t(100));
        p.end(run, t(100));

        let sum = p.summary();
        assert_eq!(sum.spans, 4);
        assert_eq!(sum.total_vt_us, 100);
        let run_phase = sum.phases.iter().find(|ph| ph.name == "run").unwrap();
        assert_eq!(run_phase.vt_incl_us, 100);
        assert_eq!(run_phase.vt_excl_us, 0, "children cover the whole run");
        let step = sum.phases.iter().find(|ph| ph.name == "scan.step").unwrap();
        assert_eq!(step.count, 2);
        assert_eq!(step.vt_incl_us, 100);
        assert_eq!(step.vt_excl_us, 70);
        // Exclusive virtual time partitions the total.
        let excl_sum: u64 = sum.phases.iter().map(|ph| ph.vt_excl_us).sum();
        assert_eq!(excl_sum, sum.total_vt_us);
        // Wall exclusive partitions wall total the same way.
        let wall = sum.wall.as_ref().unwrap();
        let wall_excl: u64 = wall.phases.iter().map(|ph| ph.excl_ns).sum();
        assert_eq!(wall_excl, wall.total_ns);
        // Collapsed stacks: full paths with exclusive µs.
        let folded = sum.collapsed();
        assert!(folded.contains("run;scan.step;extent.fetch 30"), "{folded}");
        assert!(folded.contains("run;scan.step 70"), "{folded}");
        // Stripping wall leaves deterministic fields intact.
        let stripped = sum.clone().virtual_only();
        assert!(stripped.wall.is_none());
        assert_eq!(stripped.phases, sum.phases);
        assert_eq!(stripped.stacks, sum.stacks);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let p = SpanProfiler::default();
        let a = p.begin(Track::Driver, "run", t(0));
        p.instant_on(Track::Manager, "mgr.place", t(1));
        p.end(a, t(10));
        let sum = p.summary();
        let json = serde_json::to_string(&sum).unwrap();
        let back: ProfileSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sum);
        let stripped = sum.virtual_only();
        let json = serde_json::to_string(&stripped).unwrap();
        let back: ProfileSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stripped);
    }
}
