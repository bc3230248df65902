//! The benchmark's own spans, recorded around its calls into the
//! layers (spans *inside* the program are the program's business).
//!
//! Spans are kept in memory by the repo's `SpanProfiler` — one forest
//! for the whole process, wall clock only — and written once, at exit,
//! to `benchmark/out/trace.json` together with the per-phase summary of
//! each workload's profiled run.

use scanshare::{ProfileSummary, SpanId, SpanProfiler, Track};
use scanshare_storage::SimTime;
use serde::Serialize;

/// Recorder of benchmark-level spans.
pub struct Recorder {
    spans: SpanProfiler,
    engine: Vec<EngineProfile>,
}

/// Summary of one workload's profiled `run_workload`.
#[derive(Serialize)]
struct EngineProfile {
    workload: String,
    /// Wall seconds of the profiled run.
    traced_wall_s: f64,
    /// Median wall seconds of the unprofiled runs it is compared with.
    wall_s: f64,
    summary: ProfileSummary,
}

#[derive(Serialize)]
struct TraceFile {
    /// Benchmark-level spans; `wall_*_ns` are since process start, the
    /// `ops` attribute of a drive span is its operation count.
    spans: Vec<scanshare::obs::span::SpanRecord>,
    dropped: u64,
    engine_profiles: Vec<EngineProfile>,
}

impl Recorder {
    /// An empty recorder.
    pub fn on() -> Self {
        Recorder {
            spans: SpanProfiler::new(1 << 16),
            engine: Vec::new(),
        }
    }

    /// A recorder that records nothing: end-to-end metrics are measured
    /// with tracing off.
    pub fn off() -> Self {
        Recorder {
            spans: SpanProfiler::new(0),
            engine: Vec::new(),
        }
    }

    /// Open a span under the currently open one.
    pub fn begin(&self, name: &str) -> SpanId {
        self.spans.begin(Track::Driver, name, SimTime::ZERO)
    }

    /// Attach a number to a span.
    pub fn attr(&self, id: SpanId, key: &str, value: u64) {
        self.spans.attr(id, key, value.to_string());
    }

    /// Close a span.
    pub fn end(&self, id: SpanId) {
        self.spans.end(id, SimTime::ZERO);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Keep the summary of a workload's profiled run.
    pub fn keep_profile(
        &mut self,
        workload: &str,
        traced_wall_s: f64,
        wall_s: f64,
        summary: ProfileSummary,
    ) {
        self.engine.push(EngineProfile {
            workload: workload.to_string(),
            traced_wall_s,
            wall_s,
            summary,
        });
    }

    /// Write everything recorded to `path` (parent directories are
    /// created).
    pub fn write(self, path: &std::path::Path) -> std::io::Result<()> {
        let file = TraceFile {
            spans: self.spans.records(),
            dropped: self.spans.dropped(),
            engine_profiles: self.engine,
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string(&file).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}
