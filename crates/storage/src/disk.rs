//! Disk model with seek accounting.
//!
//! The papers evaluate on hardware chosen specifically because it exposes
//! seek counts (HP-UX) and I/O wait (AIX) in `iostat`. This model exposes
//! the same signals deterministically:
//!
//! * a single head: a request whose first physical page is not the page
//!   after the previously serviced request pays a seek,
//! * FIFO service: requests queue behind one another, so concurrent scans
//!   genuinely interfere (the "busier disk" feedback loop of §7.2),
//! * counters and bucketed time series for pages read and seeks, driving
//!   Table 1 and Figures 17/18.

use serde::{Deserialize, Serialize};

use crate::series::TimeSeries;
use crate::sim::{SimDuration, SimTime};

/// Cost parameters of the disk model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiskConfig {
    /// Cost of a head movement (average seek + rotational delay).
    pub seek: SimDuration,
    /// Cost of transferring one page once the head is positioned.
    pub transfer_per_page: SimDuration,
    /// Width of the time-series buckets used for the read/seek plots.
    pub series_bucket: SimDuration,
}

impl Default for DiskConfig {
    fn default() -> Self {
        // Mid-2000s enterprise disk: ~5ms seek, ~60MB/s sequential.
        DiskConfig {
            seek: SimDuration::from_micros(5_000),
            transfer_per_page: SimDuration::from_micros(140),
            series_bucket: SimDuration::from_secs(1),
        }
    }
}

/// Aggregate disk counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DiskStats {
    /// Number of read requests serviced.
    pub requests: u64,
    /// Number of pages physically read.
    pub pages_read: u64,
    /// Number of head movements.
    pub seeks: u64,
    /// Total distance the head travelled over all seeks, in pages
    /// (|target − resting position|; the first request travels nothing).
    #[serde(default)]
    pub seek_distance_pages: u64,
    /// Total time the disk spent servicing requests.
    pub busy: SimDuration,
}

/// Outcome of a read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCompletion {
    /// When the disk began servicing the request (>= request time).
    pub start: SimTime,
    /// When the data is available to the requester.
    pub done: SimTime,
    /// Whether the request paid a seek.
    pub seeked: bool,
}

/// The single-head FIFO disk.
#[derive(Debug)]
pub struct Disk {
    cfg: DiskConfig,
    /// Physical page address one past the last page serviced, i.e. where
    /// the head currently rests. `None` before the first request.
    head: Option<u64>,
    free_at: SimTime,
    stats: DiskStats,
    read_series: TimeSeries,
    seek_series: TimeSeries,
    seek_distance_series: TimeSeries,
}

impl Disk {
    /// Create a disk with the given cost model.
    pub fn new(cfg: DiskConfig) -> Self {
        let bucket = cfg.series_bucket.as_micros();
        Disk {
            cfg,
            head: None,
            free_at: SimTime::ZERO,
            stats: DiskStats::default(),
            read_series: TimeSeries::new(bucket),
            seek_series: TimeSeries::new(bucket),
            seek_distance_series: TimeSeries::new(bucket),
        }
    }

    /// Service a read of `npages` physically contiguous pages starting at
    /// physical address `addr`, issued at time `now`, with `extra` added
    /// to its service time — the fault injector's latency spikes and
    /// device stalls, zero otherwise. An inflated service delays
    /// everything queued behind the request (`free_at` moves), exactly
    /// like a real slow-path sector.
    pub fn read(
        &mut self,
        now: SimTime,
        addr: u64,
        npages: u32,
        extra: SimDuration,
    ) -> ReadCompletion {
        assert!(npages > 0, "read of zero pages");
        let start = now.max(self.free_at);
        let seeked = self.head != Some(addr);
        let mut service = self.cfg.transfer_per_page.times(npages as u64) + extra;
        let mut seek_distance = 0u64;
        if seeked {
            service += self.cfg.seek;
            self.stats.seeks += 1;
            seek_distance = self.head.unwrap_or(addr).abs_diff(addr);
            self.stats.seek_distance_pages += seek_distance;
        }
        let done = start + service;
        self.head = Some(addr + npages as u64);
        self.free_at = done;
        self.stats.requests += 1;
        self.stats.pages_read += npages as u64;
        self.stats.busy += service;
        self.read_series.add(done, npages as u64);
        if seeked {
            self.seek_series.add(done, 1);
            self.seek_distance_series.add(done, seek_distance);
        }
        ReadCompletion {
            start,
            done,
            seeked,
        }
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Pages read per time bucket (Figure 17's series, in pages).
    pub fn read_series(&self) -> &TimeSeries {
        &self.read_series
    }

    /// Seeks per time bucket (Figure 18's series).
    pub fn seek_series(&self) -> &TimeSeries {
        &self.seek_series
    }

    /// Head-travel distance per time bucket, in pages.
    pub fn seek_distance_series(&self) -> &TimeSeries {
        &self.seek_distance_series
    }

    /// The time at which the disk becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskConfig {
            seek: SimDuration::from_micros(1000),
            transfer_per_page: SimDuration::from_micros(100),
            series_bucket: SimDuration::from_secs(1),
        })
    }

    #[test]
    fn first_read_seeks() {
        let mut d = disk();
        let c = d.read(SimTime::ZERO, 0, 1, SimDuration::ZERO);
        assert!(c.seeked);
        assert_eq!(c.done.as_micros(), 1100);
        assert_eq!(d.stats().seeks, 1);
    }

    #[test]
    fn sequential_reads_do_not_seek() {
        let mut d = disk();
        d.read(SimTime::ZERO, 0, 4, SimDuration::ZERO);
        let c = d.read(SimTime::from_micros(5000), 4, 4, SimDuration::ZERO);
        assert!(!c.seeked);
        assert_eq!(d.stats().seeks, 1);
        assert_eq!(d.stats().pages_read, 8);
    }

    #[test]
    fn non_contiguous_reads_seek() {
        let mut d = disk();
        d.read(SimTime::ZERO, 0, 4, SimDuration::ZERO);
        let c = d.read(SimTime::from_micros(5000), 100, 1, SimDuration::ZERO);
        assert!(c.seeked);
        // Even going backwards to an already-read page costs a seek.
        let c2 = d.read(SimTime::from_micros(10_000), 0, 1, SimDuration::ZERO);
        assert!(c2.seeked);
        assert_eq!(d.stats().seeks, 3);
    }

    #[test]
    fn requests_queue_fifo() {
        let mut d = disk();
        let c1 = d.read(SimTime::ZERO, 0, 1, SimDuration::ZERO); // done at 1100
        let c2 = d.read(SimTime::ZERO, 50, 1, SimDuration::ZERO); // must wait for c1
        assert_eq!(c2.start, c1.done);
        assert_eq!(c2.done.as_micros(), 1100 + 1100);
    }

    #[test]
    fn idle_gap_does_not_accumulate_busy_time() {
        let mut d = disk();
        d.read(SimTime::ZERO, 0, 1, SimDuration::ZERO);
        d.read(SimTime::from_secs(10), 1, 1, SimDuration::ZERO);
        assert_eq!(d.stats().busy.as_micros(), 1100 + 100);
    }

    #[test]
    fn series_record_at_completion_time() {
        let mut d = disk();
        // Completes at 1.1ms -> bucket 0.
        d.read(SimTime::ZERO, 0, 2, SimDuration::ZERO);
        // Completes just after 1s -> bucket 1.
        d.read(SimTime::from_micros(999_950), 100, 1, SimDuration::ZERO);
        assert_eq!(d.read_series().buckets(), &[2, 1]);
        assert_eq!(d.seek_series().buckets(), &[1, 1]);
    }

    #[test]
    fn seek_distance_tracks_head_travel() {
        let mut d = disk();
        // First request: the head has no resting position, distance 0.
        d.read(SimTime::ZERO, 100, 4, SimDuration::ZERO);
        assert_eq!(d.stats().seek_distance_pages, 0);
        // Head rests at 104; jumping to 4 travels 100 pages.
        d.read(SimTime::from_micros(5000), 4, 1, SimDuration::ZERO);
        assert_eq!(d.stats().seek_distance_pages, 100);
        // Sequential continuation: no seek, no distance.
        d.read(SimTime::from_micros(10_000), 5, 3, SimDuration::ZERO);
        assert_eq!(d.stats().seek_distance_pages, 100);
        // Backwards jump from 8 to 0 travels 8.
        d.read(SimTime::from_micros(15_000), 0, 1, SimDuration::ZERO);
        assert_eq!(d.stats().seek_distance_pages, 108);
        assert_eq!(d.seek_distance_series().total(), 108);
    }

    #[test]
    fn extra_service_time_delays_queued_requests() {
        let mut d = disk();
        // Stalled request: 1000 seek + 100 transfer + 5000 stall.
        let c1 = d.read(SimTime::ZERO, 0, 1, SimDuration::from_micros(5000));
        assert_eq!(c1.done.as_micros(), 6100);
        // The next request queues behind the stall, FIFO.
        let c2 = d.read(SimTime::ZERO, 1, 1, SimDuration::ZERO);
        assert_eq!(c2.start, c1.done);
        assert_eq!(d.stats().busy.as_micros(), 6100 + 100);
    }

    #[test]
    fn a_request_counts_every_page_it_reads() {
        let mut d = disk();
        d.read(SimTime::ZERO, 0, 3, SimDuration::ZERO);
        assert_eq!(d.stats().pages_read, 3);
    }
}
