//! Cost model of the simulated machine.

use scanshare_storage::{DiskConfig, SimDuration};
use serde::{Deserialize, Serialize};

/// Per-row/per-page CPU cost of a scan — the knob that makes a query
/// CPU-intensive (TPC-H Q1, heavy aggregation) or I/O-intensive (Q6,
/// a cheap predicate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuClass {
    /// CPU time per row visited.
    pub per_row: SimDuration,
    /// CPU time per page visited (decode, latching, bookkeeping).
    pub per_page: SimDuration,
}

impl CpuClass {
    /// A cheap, I/O-bound scan (Q6-like): predicate evaluation only.
    /// ~180µs CPU per 150-row page against ~450µs of cold I/O — alone it
    /// is I/O-bound, but three such scans sharing one page stream become
    /// CPU-bound, which is exactly the Figure 15 shift.
    pub fn io_bound() -> Self {
        CpuClass {
            per_row: SimDuration::from_micros(1),
            per_page: SimDuration::from_micros(30),
        }
    }

    /// A CPU-bound scan (Q1-like): heavy per-row aggregation, ~2x the
    /// cold I/O cost per page.
    pub fn cpu_bound() -> Self {
        CpuClass {
            per_row: SimDuration::from_micros(6),
            per_page: SimDuration::from_micros(30),
        }
    }

    /// A moderate mix, near parity with cold I/O.
    pub fn balanced() -> Self {
        CpuClass {
            per_row: SimDuration::from_micros(3),
            per_page: SimDuration::from_micros(30),
        }
    }

    /// Total CPU time for an extent of `pages` pages and `rows` rows.
    pub fn extent_cost(&self, pages: u64, rows: u64) -> SimDuration {
        SimDuration::from_micros(
            self.per_row.as_micros() * rows + self.per_page.as_micros() * pages,
        )
    }
}

/// Machine-level engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of CPUs (the paper's boxes have 4).
    pub n_cpus: u32,
    /// Pages per extent — the scan advance unit and the location-update
    /// cadence ("we perform calls to updateSISCANLocation at every extent
    /// boundary").
    pub extent_pages: u32,
    /// Kernel/system CPU time charged per physical read request.
    pub sys_per_request: SimDuration,
    /// Disk cost model.
    pub disk: DiskConfig,
    /// Disks in the striped array (the paper's AIX box has 16 SSA
    /// disks). 1 = the calibrated single-disk baseline.
    pub n_disks: u32,
    /// Extents to prefetch ahead of a sequential scan: 0 (off) or 1, the
    /// one extent a scan peeks ahead; a run refuses more. With prefetch
    /// on, the next extent's disk read is issued as soon as the
    /// current one arrives, overlapping I/O with row processing — how
    /// the paper's DB2 actually reads ("prefetch extents" are its unit
    /// of throttling distance). Off by default so the headline
    /// experiments stay at the calibrated baseline; `exp prefetch`
    /// re-runs Table 1 with it on.
    pub prefetch_extents: u32,
    /// Ring size (in pages) through which an *unshared* large scan
    /// cycles its buffers, mirroring vanilla engines' scan-resistant
    /// buffer management (e.g. PostgreSQL's ring buffer). Applies to
    /// scans larger than a quarter of the pool; `0` disables the ring.
    pub seq_ring_pages: u32,
    /// Let table scans participate in sharing (the ICDE 2007 scope).
    pub share_table_scans: bool,
    /// Let index scans participate in sharing (the VLDB 2007 extension).
    pub share_index_scans: bool,
    /// Virtual-time interval at which the run's observability sampler
    /// records pool hit-ratio, eviction, seek-distance, per-group
    /// distance, and per-scan slowdown series into the report's metrics.
    /// Zero disables interval sampling (aggregates are still recorded).
    #[serde(default = "default_metrics_interval")]
    pub metrics_interval: SimDuration,
}

/// Serde default for [`EngineConfig::metrics_interval`], so specs written
/// before the observability layer still deserialize.
fn default_metrics_interval() -> SimDuration {
    SimDuration::from_millis(100)
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_cpus: 4,
            extent_pages: 16,
            sys_per_request: SimDuration::from_micros(80),
            disk: DiskConfig::default(),
            n_disks: 1,
            prefetch_extents: 0,
            seq_ring_pages: 32,
            share_table_scans: true,
            share_index_scans: true,
            metrics_interval: default_metrics_interval(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_cost_combines_rows_and_pages() {
        let c = CpuClass {
            per_row: SimDuration::from_micros(2),
            per_page: SimDuration::from_micros(10),
        };
        assert_eq!(c.extent_cost(16, 100).as_micros(), 2 * 100 + 10 * 16);
    }

    #[test]
    fn classes_are_ordered_by_cpu_weight() {
        let rows_per_extent = 16 * 150;
        let io = CpuClass::io_bound().extent_cost(16, rows_per_extent);
        let mid = CpuClass::balanced().extent_cost(16, rows_per_extent);
        let cpu = CpuClass::cpu_bound().extent_cost(16, rows_per_extent);
        assert!(io < mid && mid < cpu);
    }

    #[test]
    fn default_engine_config_matches_the_papers() {
        let c = EngineConfig::default();
        assert_eq!(c.n_cpus, 4);
        assert_eq!(c.extent_pages, 16);
    }
}
