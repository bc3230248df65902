//! The execution world: disk + pool + CPUs + sharing manager, advanced
//! over virtual time.
//!
//! [`ExecWorld`] is the per-run mutable state. Scan operators call
//! [`ExecWorld::fetch_extent`] to bring an extent's pages into the pool
//! (paying disk time for misses and riding in-flight reads of other
//! scans), [`ExecWorld::run_cpu`] to occupy a CPU, and
//! [`ExecWorld::release_pages`] to unpin with the manager's priority.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use scanshare::obs::span::SpanProfiler;
use scanshare::obs::Histogram;
use scanshare::ScanSharingManager;
use scanshare_storage::{
    BufferPool, DiskArray, FileStore, PageId, PagePriority, ReadCompletion, SimDuration, SimTime,
    StorageError, StorageResult,
};

use crate::cost::EngineConfig;
use crate::faults::{FaultEvent, FaultState, FaultSummary, FaultsConfig};
use crate::metrics::Breakdown;
use crate::scan_exec::PageMemo;

/// Timing and counters of one extent fetch. The pages themselves land in
/// the caller-provided `(PageId, slot)` vector: the caller borrows their
/// bytes from the pool via [`BufferPool::slot_buf`] instead of receiving
/// a cloned handle per page.
#[derive(Debug)]
pub struct FetchResult {
    /// When every page of the extent is available (>= request time).
    pub ready: SimTime,
    /// Pool hits.
    pub hits: u64,
    /// Pages this fetch physically read.
    pub misses: u64,
    /// Physical read requests issued (for system-time accounting).
    pub requests: u64,
}

/// Per-run mutable execution state.
pub struct ExecWorld<'a> {
    /// The shared, read-only page store.
    pub store: &'a FileStore,
    /// The disk model (timing + counters): a striped array, one disk by
    /// default.
    pub disk: DiskArray,
    /// The buffer pool.
    pub pool: BufferPool,
    /// The sharing manager, if this run has one. The world owns it: a
    /// run's decisions live in it until the report copies them out.
    pub mgr: Option<ScanSharingManager>,
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// Optional span profiler. `None` (the default) keeps the exact
    /// unprofiled code path: no span is recorded and no attribute string
    /// is built.
    pub profiler: Option<SpanProfiler>,
    /// Latency of each physical read request, issue to completion (µs).
    pub(crate) read_hist: Histogram,
    /// Each injected throttle wait (µs) — recorded by the scan executor.
    pub(crate) throttle_hist: Histogram,
    cpus: BinaryHeap<Reverse<u64>>,
    /// Reusable `(page, physical address)` miss buffer for
    /// `fetch_extent`/`prefetch`, so the per-extent hot path allocates
    /// nothing in steady state.
    miss_scratch: Vec<(PageId, u64)>,
    /// Fault-injection state. Every read goes through its plan; a run
    /// without fault rules has the empty plan, which injects nothing and
    /// grants no retries.
    faults: FaultState,
    /// CPU usage accumulators (user/system; idle and wait are derived at
    /// report time).
    pub user_time: SimDuration,
    /// Kernel time charged for read requests.
    pub sys_time: SimDuration,
    /// Total time tasks spent blocked on page availability.
    pub io_wait_time: SimDuration,
    /// The page subtotals a run keeps for its whole-page steps. A world
    /// built alone keeps none, so its steps fold every page they fix.
    pub(crate) memo: Option<PageMemo>,
}

impl<'a> ExecWorld<'a> {
    /// Create a world over `store` with a fresh pool and disk.
    pub fn new(
        store: &'a FileStore,
        pool: BufferPool,
        cfg: EngineConfig,
        mgr: Option<ScanSharingManager>,
    ) -> Self {
        let disk = DiskArray::new(
            cfg.disk.clone(),
            cfg.n_disks.max(1),
            cfg.extent_pages.max(1),
        );
        let cpus = (0..cfg.n_cpus).map(|_| Reverse(0u64)).collect();
        ExecWorld {
            store,
            disk,
            pool,
            mgr,
            cfg,
            profiler: None,
            read_hist: Histogram::new(),
            throttle_hist: Histogram::new(),
            cpus,
            miss_scratch: Vec::new(),
            faults: FaultState::new(&FaultsConfig::default()),
            user_time: SimDuration::ZERO,
            sys_time: SimDuration::ZERO,
            io_wait_time: SimDuration::ZERO,
            memo: None,
        }
    }

    /// Run this world under the fault configuration `cfg`.
    pub fn enable_faults(&mut self, cfg: &FaultsConfig) {
        self.faults = FaultState::new(cfg);
    }

    /// The run's fault summary.
    pub fn fault_summary(&self) -> FaultSummary {
        self.faults.summary()
    }

    /// Drain fault occurrences observed since the last call. The scan
    /// executor calls this right after its fetch, attributing the events
    /// to the scan that issued the reads.
    pub(crate) fn take_fault_events(&mut self, out: &mut Vec<FaultEvent>) {
        out.append(&mut self.faults.pending);
    }

    /// Count a scan aborted by faults (maintained by the scan executor).
    pub(crate) fn note_scan_aborted(&mut self) {
        self.faults.scans_aborted += 1;
    }

    /// Issue one physical read run through the fault plan: transient
    /// errors and stall timeouts are retried with doubling backoff up to
    /// the retry budget; permanent errors (and exhausted budgets) surface
    /// as `StorageError::ReadFault`.
    fn read_run(&mut self, now: SimTime, phys: u64, npages: u32) -> StorageResult<ReadCompletion> {
        let prof = self.profiler.clone();
        let (disk, fs) = (&mut self.disk, &mut self.faults);
        let mut attempt: u32 = 1;
        let mut issue = now;
        loop {
            match disk.read_faulted(issue, phys, npages, &mut fs.injector) {
                Ok(c) => {
                    if c.done.since(c.start) > fs.timeout && attempt <= fs.max_retries {
                        // The device sat on the request past the timeout:
                        // declare it lost and re-issue once it completes
                        // (the device did the work either way).
                        fs.timeouts += 1;
                        fs.retries += 1;
                        // Instants are stamped at the request's issue
                        // time (monotone per track); the actual retry
                        // moment rides in an attribute.
                        if let Some(p) = &prof {
                            let s = p.instant("io.retry", now);
                            p.attr(s, "kind", "timeout");
                            p.attr(s, "attempt", attempt.to_string());
                            p.attr(s, "addr", phys.to_string());
                            p.attr(s, "retry_at_us", c.done.as_micros().to_string());
                        }
                        attempt += 1;
                        issue = c.done;
                        continue;
                    }
                    return Ok(c);
                }
                Err(StorageError::ReadFault {
                    device,
                    addr,
                    transient,
                }) => {
                    fs.pending.push(FaultEvent {
                        device,
                        addr,
                        transient,
                        attempt,
                    });
                    if transient && attempt <= fs.max_retries {
                        fs.retries += 1;
                        let backoff = SimDuration::from_micros(
                            fs.backoff.as_micros() << (attempt - 1).min(16),
                        );
                        fs.backoff_wait += backoff;
                        if let Some(p) = &prof {
                            let s = p.instant("io.retry", now);
                            p.attr(s, "kind", "transient");
                            p.attr(s, "attempt", attempt.to_string());
                            p.attr(s, "device", device.to_string());
                            p.attr(s, "backoff_us", backoff.as_micros().to_string());
                            p.attr(s, "retry_at_us", (issue + backoff).as_micros().to_string());
                        }
                        issue += backoff;
                        attempt += 1;
                        continue;
                    }
                    return Err(StorageError::ReadFault {
                        device,
                        addr,
                        transient,
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Bring `page_ids` (one extent, in scan order) into the pool at time
    /// `now`, filling `pages` with each page's pinned pool slot (sorted
    /// by page id — scan order). Misses are grouped into
    /// physically-contiguous runs, each serviced as one disk request.
    /// Pages stay pinned until [`ExecWorld::release_pages`].
    pub fn fetch_extent(
        &mut self,
        now: SimTime,
        page_ids: &[PageId],
        pages: &mut Vec<(PageId, u32)>,
    ) -> StorageResult<FetchResult> {
        pages.clear();
        let mut ready = now;
        let mut hits = 0u64;
        let mut requests = 0u64;
        // (page, physical address) of each miss, in scan order.
        let mut misses = std::mem::take(&mut self.miss_scratch);
        misses.clear();
        for &id in page_ids {
            match self.pool.fix_slot(id) {
                Some(slot) => {
                    hits += 1;
                    // Ride another scan's in-flight read: the frame
                    // knows when the read that filled it completes.
                    ready = ready.max(self.pool.slot_available_at(slot));
                    pages.push((id, slot));
                }
                None => {
                    misses.push((id, self.store.physical(id)?));
                }
            }
        }
        // Service misses as contiguous runs.
        let n_misses = misses.len() as u64;
        let mut i = 0;
        while i < misses.len() {
            let mut j = i + 1;
            while j < misses.len() && misses[j].1 == misses[j - 1].1 + 1 {
                j += 1;
            }
            let (_, phys) = misses[i];
            // Seek distance is cumulative across the array; the delta
            // around one request attributes head travel to this miss.
            let seek_before = self
                .profiler
                .as_ref()
                .map(|_| self.disk.stats().seek_distance_pages);
            let completion = match self.read_run(now, phys, (j - i) as u32) {
                Ok(c) => c,
                Err(e) => {
                    // The fetch failed partway: unpin everything it
                    // pinned (hits and earlier miss runs) so the caller
                    // can abort the scan without leaking pins.
                    for &(id, slot) in pages.iter() {
                        let _ = self.pool.release_slot(id, slot, PagePriority::Normal);
                    }
                    pages.clear();
                    self.miss_scratch = misses;
                    return Err(e);
                }
            };
            if let Some(p) = &self.profiler {
                let s = p.instant("io.miss", now);
                p.attr(s, "device", self.disk.device_of(phys).to_string());
                p.attr(s, "pages", (j - i).to_string());
                p.attr(
                    s,
                    "latency_us",
                    completion.done.since(now).as_micros().to_string(),
                );
                let travelled = self
                    .disk
                    .stats()
                    .seek_distance_pages
                    .saturating_sub(seek_before.unwrap_or(0));
                p.attr(s, "seek_distance_pages", travelled.to_string());
            }
            self.read_hist
                .record(completion.done.since(now).as_micros());
            requests += 1;
            ready = ready.max(completion.done);
            for &(id, _) in &misses[i..j] {
                let buf = self.store.read_page(id)?;
                let slot = self.pool.complete_miss_at(id, buf, completion.done)?;
                pages.push((id, slot));
            }
            i = j;
        }
        self.miss_scratch = misses;
        // Keep the extent in scan order for row processing.
        pages.sort_unstable_by_key(|&(id, _)| id);
        let sys = SimDuration::from_micros(self.cfg.sys_per_request.as_micros() * requests);
        self.sys_time += sys;
        self.io_wait_time += ready.since(now);
        Ok(FetchResult {
            ready,
            hits,
            misses: n_misses,
            requests,
        })
    }

    /// Issue an asynchronous read for pages a scan will need soon. The
    /// pages are installed unpinned, their availability time with them,
    /// so the scan's next `fetch_extent` finds them resident and only
    /// waits out the remaining disk time. No-op for pages already
    /// resident.
    pub fn prefetch(&mut self, now: SimTime, page_ids: &[PageId]) -> StorageResult<()> {
        let mut misses = std::mem::take(&mut self.miss_scratch);
        misses.clear();
        for &id in page_ids {
            if !self.pool.contains(id) {
                misses.push((id, self.store.physical(id)?));
            }
        }
        let mut i = 0;
        while i < misses.len() {
            let mut j = i + 1;
            while j < misses.len() && misses[j].1 == misses[j - 1].1 + 1 {
                j += 1;
            }
            let (_, phys) = misses[i];
            let completion = match self.read_run(now, phys, (j - i) as u32) {
                Ok(c) => c,
                Err(StorageError::ReadFault { .. }) => {
                    // Prefetch is opportunistic: drop this run (the
                    // demand fetch will face the fault itself) and keep
                    // prefetching the rest.
                    i = j;
                    continue;
                }
                Err(e) => {
                    self.miss_scratch = misses;
                    return Err(e);
                }
            };
            if let Some(p) = &self.profiler {
                let s = p.instant("io.prefetch", now);
                p.attr(s, "device", self.disk.device_of(phys).to_string());
                p.attr(s, "pages", (j - i).to_string());
                p.attr(
                    s,
                    "latency_us",
                    completion.done.since(now).as_micros().to_string(),
                );
            }
            self.read_hist
                .record(completion.done.since(now).as_micros());
            self.sys_time += self.cfg.sys_per_request;
            for &(id, _) in &misses[i..j] {
                let buf = self.store.read_page(id)?;
                let slot = self.pool.complete_miss_at(id, buf, completion.done)?;
                // A prefetched page is needed immediately: release it
                // high so a priority-aware pool does not victimize it
                // before the scan arrives. The scan's own release
                // re-prioritizes it according to its group role.
                self.pool.release_slot(id, slot, PagePriority::High)?;
            }
            i = j;
        }
        self.miss_scratch = misses;
        Ok(())
    }

    /// Occupy one CPU for `cost`, starting no earlier than `ready`.
    /// Returns the completion time. Accounted as user time.
    pub fn run_cpu(&mut self, ready: SimTime, cost: SimDuration) -> SimTime {
        let Reverse(free) = self.cpus.pop().expect("at least one CPU");
        let start = ready.max(SimTime::from_micros(free));
        let done = start + cost;
        self.cpus.push(Reverse(done.as_micros()));
        self.user_time += cost;
        done
    }

    /// Unpin an extent's pages (as filled by [`ExecWorld::fetch_extent`])
    /// with the given release priority.
    pub fn release_pages(
        &mut self,
        pages: &[(PageId, u32)],
        priority: PagePriority,
    ) -> StorageResult<()> {
        for &(id, slot) in pages {
            self.pool.release_slot(id, slot, priority)?;
        }
        Ok(())
    }

    /// Derive the run-level CPU breakdown, given the run's end time.
    pub fn breakdown(&self, makespan: SimDuration) -> Breakdown {
        let capacity = SimDuration::from_micros(makespan.as_micros() * self.cfg.n_cpus as u64);
        let busy = self.user_time + self.sys_time;
        let idle_raw = capacity.saturating_sub(busy);
        // A CPU can only be "waiting on I/O" while idle; clamp.
        let io_wait = self.io_wait_time.min(idle_raw);
        let idle = idle_raw.saturating_sub(io_wait);
        Breakdown {
            user: self.user_time,
            system: self.sys_time,
            idle,
            io_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scanshare_storage::{PoolConfig, ReplacementPolicy, PAGE_SIZE};

    fn store_with_pages(n: u32) -> FileStore {
        let mut s = FileStore::new(16);
        let f = s.create_file();
        for i in 0..n {
            let mut page = vec![0u8; PAGE_SIZE];
            page[0] = i as u8;
            s.append_page(f, Bytes::from(page)).unwrap();
        }
        s
    }

    fn world(store: &FileStore, pool_pages: usize) -> ExecWorld<'_> {
        let pool = BufferPool::new(PoolConfig::new(pool_pages, ReplacementPolicy::Lru));
        ExecWorld::new(store, pool, EngineConfig::default(), None)
    }

    fn pids(n: u32) -> Vec<PageId> {
        (0..n)
            .map(|p| PageId::new(scanshare_storage::FileId(0), p))
            .collect()
    }

    #[test]
    fn cold_fetch_pays_one_seek_per_contiguous_run() {
        let store = store_with_pages(32);
        let mut w = world(&store, 64);
        let mut pages = Vec::new();
        let r = w
            .fetch_extent(SimTime::ZERO, &pids(16), &mut pages)
            .unwrap();
        assert_eq!(r.misses, 16);
        assert_eq!(r.hits, 0);
        assert_eq!(r.requests, 1, "contiguous extent = one request");
        assert_eq!(w.disk.stats().seeks, 1);
        assert!(r.ready > SimTime::ZERO);
        w.release_pages(&pages, PagePriority::Normal).unwrap();
    }

    #[test]
    fn warm_fetch_is_instant() {
        let store = store_with_pages(16);
        let mut w = world(&store, 64);
        let mut pages = Vec::new();
        let r1 = w
            .fetch_extent(SimTime::ZERO, &pids(16), &mut pages)
            .unwrap();
        assert_eq!(r1.misses, 16);
        w.release_pages(&pages, PagePriority::Normal).unwrap();
        let t = SimTime::from_secs(1);
        let r2 = w.fetch_extent(t, &pids(16), &mut pages).unwrap();
        assert_eq!(r2.misses, 0);
        assert_eq!(r2.hits, 16);
        assert_eq!(r2.ready, t, "no new I/O time");
        w.release_pages(&pages, PagePriority::Normal).unwrap();
        assert_eq!(w.disk.stats().pages_read, 16);
    }

    #[test]
    fn riding_an_in_flight_read_waits_for_its_completion() {
        let store = store_with_pages(16);
        let mut w = world(&store, 64);
        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        let r1 = w.fetch_extent(SimTime::ZERO, &pids(16), &mut p1).unwrap();
        // A second task at the same instant: pages are resident but only
        // available when the first task's read completes.
        let r2 = w.fetch_extent(SimTime::ZERO, &pids(16), &mut p2).unwrap();
        assert_eq!(r2.misses, 0);
        assert_eq!(r2.ready, r1.ready);
        w.release_pages(&p1, PagePriority::Normal).unwrap();
        w.release_pages(&p2, PagePriority::Normal).unwrap();
        w.release_pages(&p1, PagePriority::Normal).unwrap_err();
    }

    #[test]
    fn a_reread_page_is_available_at_its_newest_completion() {
        let store = store_with_pages(32);
        let mut w = world(&store, 16);
        let (a, b) = (&pids(32)[..16], &pids(32)[16..]);
        let mut p1 = Vec::new();
        let mut p2 = Vec::new();
        // Read extent A, let extent B evict it, read it again later.
        let first = w.fetch_extent(SimTime::ZERO, a, &mut p1).unwrap();
        w.release_pages(&p1, PagePriority::Normal).unwrap();
        let r = w.fetch_extent(first.ready, b, &mut p1).unwrap();
        assert_eq!(r.misses, 16);
        w.release_pages(&p1, PagePriority::Normal).unwrap();
        let t = SimTime::from_secs(1);
        let second = w.fetch_extent(t, a, &mut p1).unwrap();
        assert_eq!(second.misses, 16, "extent A was evicted");
        assert!(second.ready > t);
        // A second scan fixes A while that second read is in flight: it
        // waits for the second completion, not the first and not `t`.
        let rider = w.fetch_extent(t, a, &mut p2).unwrap();
        assert_eq!((rider.hits, rider.misses), (16, 0));
        assert_eq!(rider.ready, second.ready);
        w.release_pages(&p1, PagePriority::Normal).unwrap();
        w.release_pages(&p2, PagePriority::Normal).unwrap();
        // Once the read has landed a hit costs nothing.
        let late = second.ready + SimDuration::from_micros(1);
        let r = w.fetch_extent(late, a, &mut p1).unwrap();
        assert_eq!(r.ready, late);
        w.release_pages(&p1, PagePriority::Normal).unwrap();
    }

    #[test]
    fn a_prefetched_pages_first_fix_waits_out_the_remaining_disk_time() {
        let store = store_with_pages(16);
        // What the read costs, from a twin world that demands it cold.
        let mut pages = Vec::new();
        let cold = world(&store, 64)
            .fetch_extent(SimTime::ZERO, &pids(16), &mut pages)
            .unwrap();
        let mut w = world(&store, 64);
        w.prefetch(SimTime::ZERO, &pids(16)).unwrap();
        let soon = SimTime::from_micros(1);
        assert!(cold.ready > soon);
        let r = w.fetch_extent(soon, &pids(16), &mut pages).unwrap();
        assert_eq!((r.hits, r.misses, r.requests), (16, 0, 0));
        assert_eq!(r.ready, cold.ready, "the prefetch is still in flight");
        w.release_pages(&pages, PagePriority::Normal).unwrap();
        assert_eq!(w.disk.stats().pages_read, 16);
    }

    #[test]
    fn a_recycled_slot_does_not_leak_its_previous_tenants_availability() {
        let store = store_with_pages(32);
        let mut w = world(&store, 16);
        let all = pids(32);
        let mut pages = Vec::new();
        // Extent A becomes available a little after t = 1 s.
        let t = SimTime::from_secs(1);
        let r = w.fetch_extent(t, &all[..16], &mut pages).unwrap();
        assert!(r.ready > t);
        w.release_pages(&pages, PagePriority::Normal).unwrap();
        // Something other than the world's own reads installs page 16
        // over one of A's frames: no availability time comes with it.
        let x = all[16];
        let slot = w
            .pool
            .complete_miss_slot(x, store.read_page(x).unwrap())
            .unwrap();
        assert_eq!(w.pool.len(), 16, "page 16 took over a frame of extent A");
        w.pool.release(x, PagePriority::Normal).unwrap();
        let early = SimTime::from_millis(500);
        let r = w.fetch_extent(early, &[x], &mut pages).unwrap();
        assert_eq!(pages, vec![(x, slot)]);
        assert_eq!((r.hits, r.ready), (1, early));
        w.release_pages(&pages, PagePriority::Normal).unwrap();
        // And a frame the world refills carries the new read's time.
        let t2 = SimTime::from_secs(2);
        let second = w.fetch_extent(t2, &all[16..], &mut pages).unwrap();
        assert_eq!(second.misses, 15);
        w.release_pages(&pages, PagePriority::Normal).unwrap();
        let r = w.fetch_extent(t2, &all[16..], &mut pages).unwrap();
        assert_eq!((r.hits, r.ready), (16, second.ready));
        w.release_pages(&pages, PagePriority::Normal).unwrap();
    }

    #[test]
    fn pages_come_back_in_scan_order() {
        let store = store_with_pages(16);
        let mut w = world(&store, 64);
        // Warm up pages 4..8 so the extent is part hit, part miss.
        let warm: Vec<PageId> = pids(16)[4..8].to_vec();
        let mut pages = Vec::new();
        let r = w.fetch_extent(SimTime::ZERO, &warm, &mut pages).unwrap();
        assert_eq!(r.hits, 0);
        w.release_pages(&pages, PagePriority::Normal).unwrap();
        let r = w
            .fetch_extent(SimTime::from_millis(1), &pids(16), &mut pages)
            .unwrap();
        assert_eq!(r.hits, 4);
        assert_eq!(r.misses, 12);
        assert_eq!(r.requests, 2, "two contiguous miss runs: 0..4 and 8..16");
        let order: Vec<u32> = pages.iter().map(|&(id, _)| id.page).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
        // Slots hand back the right bytes without cloning.
        for &(id, slot) in &pages {
            assert_eq!(w.pool.slot_page(slot), id);
            assert_eq!(w.pool.slot_buf(slot)[0], id.page as u8);
        }
        w.release_pages(&pages, PagePriority::Normal).unwrap();
    }

    #[test]
    fn cpu_server_serializes_beyond_capacity() {
        let store = store_with_pages(1);
        let mut w = world(&store, 8);
        w.cfg.n_cpus = 2;
        // Rebuild with 2 CPUs.
        let pool = BufferPool::new(PoolConfig::new(8, ReplacementPolicy::Lru));
        let mut w = ExecWorld::new(
            &store,
            pool,
            EngineConfig {
                n_cpus: 2,
                ..EngineConfig::default()
            },
            None,
        );
        let c = SimDuration::from_millis(10);
        let d1 = w.run_cpu(SimTime::ZERO, c);
        let d2 = w.run_cpu(SimTime::ZERO, c);
        let d3 = w.run_cpu(SimTime::ZERO, c);
        assert_eq!(d1, SimTime::from_millis(10));
        assert_eq!(d2, SimTime::from_millis(10));
        assert_eq!(d3, SimTime::from_millis(20), "third job queues");
        assert_eq!(w.user_time, SimDuration::from_millis(30));
    }

    fn faults_cfg(rules: Vec<scanshare_storage::FaultRule>) -> FaultsConfig {
        FaultsConfig {
            plan: scanshare_storage::FaultPlan { seed: 0, rules },
            ..FaultsConfig::default()
        }
    }

    fn everywhere(fault: scanshare_storage::FaultKind) -> scanshare_storage::FaultRule {
        scanshare_storage::FaultRule {
            device: None,
            pages: None,
            from_us: 0,
            until_us: None,
            fault,
        }
    }

    #[test]
    fn transient_fault_is_retried_and_the_fetch_succeeds() {
        use scanshare_storage::FaultKind;
        let store = store_with_pages(16);
        let mut w = world(&store, 64);
        // Seed 0 at p=0.5 deterministically faults the first two attempts
        // of the run at address 0 and passes the third, well inside the
        // default budget of 4 retries.
        w.enable_faults(&faults_cfg(vec![everywhere(FaultKind::TransientError {
            probability: 0.5,
        })]));
        let mut pages = Vec::new();
        let r = w
            .fetch_extent(SimTime::ZERO, &pids(16), &mut pages)
            .unwrap();
        assert_eq!(r.misses, 16);
        let s = w.fault_summary();
        assert!(s.transient_errors > 0, "seed produced no fault: {s:?}");
        assert_eq!(s.retries, s.transient_errors);
        assert!(s.backoff_wait > SimDuration::ZERO);
        let mut events = Vec::new();
        w.take_fault_events(&mut events);
        assert_eq!(events.len() as u64, s.transient_errors);
        assert!(events.iter().all(|e| e.transient));
        w.release_pages(&pages, PagePriority::Normal).unwrap();
    }

    #[test]
    fn permanent_fault_fails_the_fetch_without_leaking_pins() {
        use scanshare_storage::{FaultKind, FaultRule, StorageError};
        let store = store_with_pages(16);
        let mut w = world(&store, 64);
        // Warm pages 0..4 so the failing fetch holds pinned hits, then
        // kill pages 4.. so the miss run (which starts at page 4) faults.
        let mut pages = Vec::new();
        let warm: Vec<PageId> = pids(16)[..4].to_vec();
        w.fetch_extent(SimTime::ZERO, &warm, &mut pages).unwrap();
        w.release_pages(&pages, PagePriority::Normal).unwrap();
        w.enable_faults(&faults_cfg(vec![FaultRule {
            device: None,
            pages: Some((4, u64::MAX)),
            from_us: 0,
            until_us: None,
            fault: FaultKind::PermanentError,
        }]));
        let err = w
            .fetch_extent(SimTime::from_millis(1), &pids(16), &mut pages)
            .unwrap_err();
        assert!(matches!(
            err,
            StorageError::ReadFault {
                transient: false,
                ..
            }
        ));
        assert!(pages.is_empty(), "failed fetch must hand back nothing");
        // Nothing is left pinned.
        let resident = w.pool.resident_pages();
        assert!(
            resident.iter().all(|p| !p.pinned),
            "a pinned page survived the abort"
        );
        let s = w.fault_summary();
        assert_eq!(s.permanent_errors, 1);
        assert_eq!(s.retries, 0);
    }

    #[test]
    fn stall_timeout_reissues_the_read() {
        use scanshare_storage::{FaultKind, FaultRule};
        let store = store_with_pages(16);
        let mut w = world(&store, 64);
        // Stall only the first attempt window: the reissue (attempt 2)
        // re-rolls and p<1 eventually passes; use until_us so the retry
        // lands after the stall rule expired, making it deterministic.
        w.enable_faults(&faults_cfg(vec![FaultRule {
            device: None,
            pages: None,
            from_us: 0,
            until_us: Some(1),
            fault: FaultKind::Stall {
                probability: 1.0,
                for_us: 500_000,
            },
        }]));
        let mut pages = Vec::new();
        let r = w
            .fetch_extent(SimTime::ZERO, &pids(16), &mut pages)
            .unwrap();
        let s = w.fault_summary();
        assert_eq!(s.timeouts, 1, "500ms stall > 200ms timeout: {s:?}");
        assert_eq!(s.retries, 1);
        assert_eq!(s.delays_injected, 1);
        // The reissued read waits out the stalled one (FIFO), then runs.
        assert!(r.ready.as_micros() > 500_000);
        w.release_pages(&pages, PagePriority::Normal).unwrap();
    }

    #[test]
    fn prefetch_swallows_faults() {
        use scanshare_storage::FaultKind;
        let store = store_with_pages(16);
        let mut w = world(&store, 64);
        w.enable_faults(&faults_cfg(vec![everywhere(FaultKind::PermanentError)]));
        // The prefetch drops its run instead of failing.
        w.prefetch(SimTime::ZERO, &pids(16)).unwrap();
        assert_eq!(w.disk.stats().pages_read, 0);
        let s = w.fault_summary();
        assert_eq!(s.permanent_errors, 1);
    }

    #[test]
    fn breakdown_accounts_capacity() {
        let store = store_with_pages(16);
        let mut w = world(&store, 64);
        let mut pages = Vec::new();
        let r = w
            .fetch_extent(SimTime::ZERO, &pids(16), &mut pages)
            .unwrap();
        w.release_pages(&pages, PagePriority::Normal).unwrap();
        let done = w.run_cpu(r.ready, SimDuration::from_millis(5));
        let b = w.breakdown(done.since(SimTime::ZERO));
        let total = b.user + b.system + b.idle + b.io_wait;
        assert_eq!(
            total.as_micros(),
            done.as_micros() * 4,
            "4 CPUs worth of time accounted"
        );
        assert_eq!(b.user, SimDuration::from_millis(5));
        assert!(b.io_wait > SimDuration::ZERO);
    }
}
