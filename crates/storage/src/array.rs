//! A striped array of disks.
//!
//! The papers' hardware runs FAStT / 16-SSA-disk arrays; a single-head
//! model understates the parallelism concurrent scans can extract.
//! [`DiskArray`] stripes the physical address space across `n` identical
//! [`Disk`]s in extent-sized stripes, so requests from scans working in
//! different regions are serviced in parallel while each stripe still
//! pays realistic seek costs. With `n = 1` it degenerates to the single
//! disk used by the calibrated headline experiments.

use crate::disk::{Disk, DiskConfig, DiskStats, ReadCompletion};
use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultInjector, FaultOutcome};
use crate::series::TimeSeries;
use crate::sim::{SimDuration, SimTime};

/// A striped array of identical disks.
#[derive(Debug)]
pub struct DiskArray {
    disks: Vec<Disk>,
    stripe_pages: u64,
}

impl DiskArray {
    /// Create an array of `n_disks` disks with `stripe_pages`-page
    /// stripes (use the extent size so block reads stay on one disk).
    pub fn new(cfg: DiskConfig, n_disks: u32, stripe_pages: u32) -> Self {
        assert!(n_disks > 0, "need at least one disk");
        assert!(stripe_pages > 0, "stripe must be positive");
        DiskArray {
            disks: (0..n_disks).map(|_| Disk::new(cfg.clone())).collect(),
            stripe_pages: stripe_pages as u64,
        }
    }

    /// The disk (device index) physical address `addr` routes to — the
    /// same routing [`DiskArray::read`] uses, exposed so observability
    /// layers can tag miss I/O with its device.
    pub fn device_of(&self, addr: u64) -> u32 {
        self.disk_of(addr) as u32
    }

    fn disk_of(&self, addr: u64) -> usize {
        ((addr / self.stripe_pages) % self.disks.len() as u64) as usize
    }

    /// Service a read of `npages` contiguous pages starting at `addr`,
    /// splitting at stripe boundaries and routing each piece to its
    /// disk. The returned completion is the latest piece's completion;
    /// `seeked` is true if any piece seeked.
    pub fn read(&mut self, now: SimTime, addr: u64, npages: u32) -> ReadCompletion {
        self.read_pieces(now, addr, npages, |_, _| FaultOutcome::None)
            .expect("a read nothing faults succeeds")
    }

    /// [`DiskArray::read`] under a fault plan: every stripe-sized piece is
    /// submitted to the injector before being issued, keyed by the device
    /// it routes to and the piece's first physical page.
    ///
    /// An injected error fails the whole request with
    /// [`StorageError::ReadFault`]. Pieces issued before the faulting one
    /// have already been serviced — the device did the work, the requester
    /// just cannot use the data — which matches how a multi-extent request
    /// dies halfway on real hardware. Injected delays inflate the faulted
    /// piece's service time on its device, delaying everything queued
    /// behind it.
    pub fn read_faulted(
        &mut self,
        now: SimTime,
        addr: u64,
        npages: u32,
        injector: &mut FaultInjector,
    ) -> StorageResult<ReadCompletion> {
        self.read_pieces(now, addr, npages, |device, at| {
            injector.check(now, device, at)
        })
    }

    /// The one stripe-piece loop: `fault(device, addr)` decides each
    /// piece's fate before it is issued.
    fn read_pieces(
        &mut self,
        now: SimTime,
        addr: u64,
        npages: u32,
        mut fault: impl FnMut(u32, u64) -> FaultOutcome,
    ) -> StorageResult<ReadCompletion> {
        assert!(npages > 0, "read of zero pages");
        let mut start = now;
        let mut done = now;
        let mut seeked = false;
        let mut at = addr;
        let mut left = npages as u64;
        let mut first = true;
        while left > 0 {
            let stripe_end = (at / self.stripe_pages + 1) * self.stripe_pages;
            let chunk = left.min(stripe_end - at) as u32;
            let d = self.disk_of(at);
            let extra = match fault(d as u32, at) {
                FaultOutcome::None => SimDuration::ZERO,
                FaultOutcome::Delay(extra) => extra,
                FaultOutcome::Error { transient } => {
                    return Err(StorageError::ReadFault {
                        device: d as u32,
                        addr: at,
                        transient,
                    });
                }
            };
            let c = self.disks[d].read(now, at, chunk, extra);
            if first {
                start = c.start;
                first = false;
            } else {
                start = start.min(c.start);
            }
            done = done.max(c.done);
            seeked |= c.seeked;
            at += chunk as u64;
            left -= chunk as u64;
        }
        Ok(ReadCompletion {
            start,
            done,
            seeked,
        })
    }

    /// Aggregate counters over all disks.
    pub fn stats(&self) -> DiskStats {
        let mut total = DiskStats::default();
        for d in &self.disks {
            let s = d.stats();
            total.requests += s.requests;
            total.pages_read += s.pages_read;
            total.seeks += s.seeks;
            total.seek_distance_pages += s.seek_distance_pages;
            total.busy += s.busy;
        }
        total
    }

    /// Pages read per time bucket, summed over the array.
    pub fn read_series(&self) -> TimeSeries {
        self.merged(|d| d.read_series())
    }

    /// Seeks per time bucket, summed over the array.
    pub fn seek_series(&self) -> TimeSeries {
        self.merged(|d| d.seek_series())
    }

    /// Head-travel distance per time bucket (pages), summed over the
    /// array.
    pub fn seek_distance_series(&self) -> TimeSeries {
        self.merged(|d| d.seek_distance_series())
    }

    fn merged<'a>(&'a self, f: impl Fn(&'a Disk) -> &'a TimeSeries) -> TimeSeries {
        let bucket = f(&self.disks[0]).bucket_us();
        let mut out = TimeSeries::new(bucket);
        for d in &self.disks {
            for (i, &v) in f(d).buckets().iter().enumerate() {
                if v > 0 {
                    out.add(SimTime::from_micros(i as u64 * bucket), v);
                }
            }
        }
        out
    }

    /// Latest time at which any disk becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.disks
            .iter()
            .map(|d| d.free_at())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimDuration;

    fn array(n: u32) -> DiskArray {
        DiskArray::new(
            DiskConfig {
                seek: SimDuration::from_micros(1000),
                transfer_per_page: SimDuration::from_micros(100),
                series_bucket: SimDuration::from_secs(1),
            },
            n,
            16,
        )
    }

    #[test]
    fn single_disk_matches_plain_disk() {
        let mut a = array(1);
        let c1 = a.read(SimTime::ZERO, 0, 16);
        assert_eq!(c1.done.as_micros(), 1000 + 1600);
        let c2 = a.read(SimTime::ZERO, 16, 16);
        // Same single disk: FIFO behind the first request, sequential.
        assert_eq!(c2.done.as_micros(), 1000 + 3200);
        assert!(!c2.seeked);
    }

    #[test]
    fn different_stripes_are_serviced_in_parallel() {
        let mut a = array(2);
        let c1 = a.read(SimTime::ZERO, 0, 16); // stripe 0 -> disk 0
        let c2 = a.read(SimTime::ZERO, 16, 16); // stripe 1 -> disk 1
        assert_eq!(c1.done.as_micros(), 2600);
        assert_eq!(c2.done.as_micros(), 2600, "parallel, not queued");
        let stats = a.stats();
        assert_eq!(stats.pages_read, 32);
        assert_eq!(stats.seeks, 2);
    }

    #[test]
    fn requests_split_at_stripe_boundaries() {
        let mut a = array(2);
        // 16 pages starting mid-stripe: 8 on disk 0's stripe, 8 on disk 1.
        let c = a.read(SimTime::ZERO, 8, 16);
        assert!(c.seeked);
        let stats = a.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.pages_read, 16);
        // Both pieces run in parallel: done = seek + 8 pages.
        assert_eq!(c.done.as_micros(), 1000 + 800);
    }

    #[test]
    fn round_robin_covers_all_disks() {
        let mut a = array(4);
        for i in 0..8u64 {
            a.read(SimTime::ZERO, i * 16, 16);
        }
        // Each of the 4 disks got 2 requests of 16 pages.
        assert_eq!(a.stats().pages_read, 128);
        assert_eq!(a.stats().requests, 8);
        // Parallelism: total busy is 8 requests' service, but wall-clock
        // completion is only 2 requests deep.
        assert_eq!(a.free_at().as_micros(), 2 * 1000 + 2 * 1600);
    }

    #[test]
    fn faulted_read_with_empty_plan_matches_plain_read() {
        use crate::fault::FaultPlan;
        let mut plain = array(2);
        let mut faulted = array(2);
        let mut inj = FaultInjector::new(FaultPlan::default());
        for (i, npages) in [(0u64, 16u32), (8, 16), (40, 4)] {
            let a = plain.read(SimTime::from_micros(i * 100), i, npages);
            let b = faulted
                .read_faulted(SimTime::from_micros(i * 100), i, npages, &mut inj)
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(
            format!("{:?}", plain.stats()),
            format!("{:?}", faulted.stats())
        );
    }

    #[test]
    fn faulted_read_targets_the_routed_device() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule};
        // Stripe 1 (pages 16..32) routes to disk 1; kill that device.
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                device: Some(1),
                pages: None,
                from_us: 0,
                until_us: None,
                fault: FaultKind::PermanentError,
            }],
        };
        let mut a = array(2);
        let mut inj = FaultInjector::new(plan);
        // Disk 0 is healthy.
        a.read_faulted(SimTime::ZERO, 0, 16, &mut inj).unwrap();
        // Disk 1 is dead.
        let err = a.read_faulted(SimTime::ZERO, 16, 16, &mut inj).unwrap_err();
        assert_eq!(
            err,
            StorageError::ReadFault {
                device: 1,
                addr: 16,
                transient: false
            }
        );
        // A straddling request dies on the second piece, after disk 0
        // already serviced the first.
        let before = a.stats().requests;
        let err = a.read_faulted(SimTime::ZERO, 8, 16, &mut inj).unwrap_err();
        assert!(matches!(err, StorageError::ReadFault { device: 1, .. }));
        assert_eq!(a.stats().requests, before + 1);
    }

    #[test]
    fn injected_stall_delays_the_device_queue() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule};
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                device: None,
                pages: Some((0, 1)),
                from_us: 0,
                until_us: None,
                fault: FaultKind::Stall {
                    probability: 1.0,
                    for_us: 10_000,
                },
            }],
        };
        let mut a = array(1);
        let mut inj = FaultInjector::new(plan);
        let c1 = a.read_faulted(SimTime::ZERO, 0, 1, &mut inj).unwrap();
        assert_eq!(c1.done.as_micros(), 1000 + 100 + 10_000);
        // Out-of-range page: no stall, but it queues behind the stalled one.
        let c2 = a.read_faulted(SimTime::ZERO, 5, 1, &mut inj).unwrap();
        assert_eq!(c2.start, c1.done);
        assert_eq!(inj.stats().delays, 1);
    }

    #[test]
    fn merged_series_sums_buckets() {
        let mut a = array(2);
        a.read(SimTime::ZERO, 0, 16);
        a.read(SimTime::ZERO, 16, 16);
        assert_eq!(a.read_series().total(), 32);
        assert_eq!(a.seek_series().total(), 2);
    }
}
