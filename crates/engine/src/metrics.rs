//! Run-level and query-level measurements — the engine's `iostat`.

use scanshare::MetricsSnapshot;
use scanshare_storage::{DiskStats, PoolStats, SimDuration, SimTime, TimeSeries};
use serde::{Deserialize, Serialize};

use crate::faults::FaultSummary;

/// CPU usage breakdown over a run, mirroring the paper's Figures 15/16
/// ("distribution of CPU time spent in user time, system time, idling,
/// and in I/O wait").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Breakdown {
    /// Useful scan work (predicates, aggregation).
    pub user: SimDuration,
    /// Kernel time for read syscalls.
    pub system: SimDuration,
    /// CPU idle, not waiting for I/O.
    pub idle: SimDuration,
    /// CPU idle while tasks are blocked on the disk.
    pub io_wait: SimDuration,
}

impl Breakdown {
    /// Percentages `(user, system, idle, wait)` of total CPU capacity.
    pub fn percentages(&self) -> (f64, f64, f64, f64) {
        let total = (self.user + self.system + self.idle + self.io_wait).as_micros() as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.user.as_micros() as f64 / total * 100.0,
            self.system.as_micros() as f64 / total * 100.0,
            self.idle.as_micros() as f64 / total * 100.0,
            self.io_wait.as_micros() as f64 / total * 100.0,
        )
    }
}

/// Measurements of one executed query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryRecord {
    /// Query name (e.g. "Q6").
    pub name: String,
    /// Stream that ran it.
    pub stream: usize,
    /// When it started.
    pub start: SimTime,
    /// When it finished.
    pub end: SimTime,
    /// CPU time spent.
    pub cpu: SimDuration,
    /// Time blocked on the disk.
    pub io_wait: SimDuration,
    /// Throttle wait injected by the sharing manager.
    pub throttle_wait: SimDuration,
    /// Buffer pool fixes.
    pub logical_reads: u64,
    /// Pages physically read on behalf of this query.
    pub physical_reads: u64,
    /// The query's numeric answers (for base-vs-shared equivalence).
    pub result: crate::query::QueryResult,
}

impl QueryRecord {
    /// Elapsed wall-clock (virtual) time.
    pub fn elapsed(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Counters of the push-delivery engine (one group-driver cursor per
/// (table, range) cohort). The headline buffer-locality claim reads off
/// these: `pages_delivered + catchup_pages` is every pool fix the push
/// cohorts performed, against `pages_delivered` distinct page deliveries
/// — a ratio near 1.0 means one pool fix per page per group, however
/// many consumers rode along.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PushSummary {
    /// Group drivers founded (one per cohort lap).
    pub drivers: u64,
    /// Cursor handoffs after a driving consumer faulted mid-lap.
    pub handoffs: u64,
    /// Late joiners that attached to an ongoing driver (founders are not
    /// counted).
    pub attaches: u64,
    /// Extents fetched by group drivers.
    pub extents_delivered: u64,
    /// Pages fixed by group drivers — exactly once per page per lap.
    pub pages_delivered: u64,
    /// Page *consumptions* served from driver-fixed pages (each of the
    /// `pages_delivered` counts once per consumer riding at the time).
    pub consumer_pages: u64,
    /// Pages fixed by late joiners' private catch-up cursors.
    pub catchup_pages: u64,
}

impl PushSummary {
    /// Pool fixes per delivered page across all push cohorts: 1.0 is the
    /// ideal (every page fixed exactly once per group); the excess over
    /// 1.0 is the price of late joiners replaying missed prefixes.
    pub fn fixes_per_page(&self) -> f64 {
        if self.pages_delivered == 0 {
            return 0.0;
        }
        (self.pages_delivered + self.catchup_pages) as f64 / self.pages_delivered as f64
    }
}

/// Everything measured over one workload run.
///
/// Every field is written, in declaration order. The `#[serde(default)]`
/// fields were added after the first artifacts, so a report written
/// before one of them existed still loads, with that section at its
/// default.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// End-to-end time of the run (last stream finish).
    pub makespan: SimDuration,
    /// Per-stream finish times, indexed by stream.
    pub stream_elapsed: Vec<SimDuration>,
    /// One record per executed query, in completion order.
    pub queries: Vec<QueryRecord>,
    /// CPU usage breakdown.
    pub breakdown: Breakdown,
    /// Disk counters.
    pub disk: DiskStats,
    /// Pages read per time bucket (Figure 17).
    pub read_series: TimeSeries,
    /// Seeks per time bucket (Figure 18).
    pub seek_series: TimeSeries,
    /// Head-travel distance per time bucket, in pages.
    #[serde(default)]
    pub seek_distance_series: TimeSeries,
    /// Buffer pool counters.
    pub pool: PoolStats,
    /// Sharing-manager decision counters (all zero in base mode).
    pub sharing: scanshare::SharingStats,
    /// Observability snapshot taken at the end of the run: counters,
    /// latency histograms, and the interval-sampled time series
    /// (per-group leader-trailer distance, per-scan slowdown vs the
    /// fairness cap, pool hit ratio, evictions, seek distance).
    #[serde(default)]
    pub metrics: MetricsSnapshot,
    /// The sharing manager's event log: every decision with its inputs
    /// and every scan's start, wrap and end (empty in base mode) — what
    /// `scanshare explain` narrates and `scanshare trace` reassembles
    /// into lifecycles. Artifacts written while a separate trace ring
    /// existed still load; their `trace` key is ignored.
    #[serde(default)]
    pub decisions: Vec<scanshare::DecisionRecord>,
    /// Fault-injection and retry accounting (all zero when the run
    /// carried no fault plan).
    #[serde(default)]
    pub faults: FaultSummary,
    /// The related-work placement the run used (`Attach` or
    /// `Elevator`), if any: `None` for base runs and for the paper's
    /// placements.
    #[serde(default)]
    pub policy: Option<scanshare::Placement>,
    /// Span-profiler summary, present only when profiling was requested
    /// (`--profile-out` or an attached [`scanshare::SpanProfiler`]).
    #[serde(default)]
    pub profile: Option<scanshare::ProfileSummary>,
    /// SLO rule verdicts, one per rule in the workload spec's `slo`
    /// section (empty when the spec declares no rules).
    #[serde(default)]
    pub slo: Vec<crate::slo::SloVerdict>,
    /// Push-delivery counters, present only when the run used
    /// `delivery: push` (`None` for pull runs).
    #[serde(default)]
    pub push: Option<PushSummary>,
}

impl RunReport {
    /// Mean elapsed time of all executions of query `name`.
    pub fn avg_query_time(&self, name: &str) -> Option<SimDuration> {
        let times: Vec<u64> = self
            .queries
            .iter()
            .filter(|q| q.name == name)
            .map(|q| q.elapsed().as_micros())
            .collect();
        if times.is_empty() {
            None
        } else {
            Some(SimDuration::from_micros(
                times.iter().sum::<u64>() / times.len() as u64,
            ))
        }
    }

    /// The distinct query names seen, in first-seen order.
    pub fn query_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for q in &self.queries {
            if !names.iter().any(|n| n == &q.name) {
                names.push(q.name.clone());
            }
        }
        names
    }
}

/// Relative improvement of `ss` over `base` (positive = ss is better),
/// e.g. `gain(100.0, 79.0) == 0.21`.
pub fn gain(base: f64, ss: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        1.0 - ss / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let b = Breakdown {
            user: SimDuration::from_secs(2),
            system: SimDuration::from_secs(1),
            idle: SimDuration::from_secs(3),
            io_wait: SimDuration::from_secs(4),
        };
        let (u, s, i, w) = b.percentages();
        assert!((u + s + i + w - 100.0).abs() < 1e-9);
        assert!((u - 20.0).abs() < 1e-9);
        assert!((w - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_all_zero() {
        assert_eq!(Breakdown::default().percentages(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn gain_is_relative_improvement() {
        assert!((gain(100.0, 79.0) - 0.21).abs() < 1e-12);
        assert_eq!(gain(0.0, 5.0), 0.0);
        assert!(gain(100.0, 120.0) < 0.0);
    }
}
