//! Test-only oracle: the original `BTreeSet`-keyed buffer pool.
//!
//! This is the pre-frame-table implementation of [`crate::pool`], kept
//! verbatim (modulo names) behind `#[cfg(test)]` as an **equivalence
//! oracle**. The slab/intrusive-list pool must be observationally
//! identical — same hit/miss outcomes, same eviction victims, same
//! stats — and the property test at the bottom of this file drives both
//! implementations with randomized fix/release/reprioritize/discard
//! sequences under every [`ReplacementPolicy`] to prove it.
//!
//! Do not extend this module with new features; it exists only so the
//! fast pool can be diffed against the simple one.

use std::collections::{BTreeSet, HashMap};

use crate::error::{StorageError, StorageResult};
use crate::page::{PageBuf, PageId};
use crate::pool::{
    FixOutcome, PagePriority, PoolConfig, PoolStats, ReplacementPolicy, ResidentPage,
};

#[derive(Debug)]
struct Frame {
    buf: PageBuf,
    pin_count: u32,
    priority: PagePriority,
    last_use: u64,
    prev_use: u64,
}

/// The original map + ordered-candidate-set pool.
#[derive(Debug)]
pub struct LegacyPool {
    cfg: PoolConfig,
    frames: HashMap<PageId, Frame>,
    /// Unpinned frames ordered by (effective priority, last use, id); the
    /// first element is the next victim. Pinned frames are absent.
    candidates: BTreeSet<(u8, u64, PageId)>,
    use_seq: u64,
    stats: PoolStats,
}

impl LegacyPool {
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(cfg.capacity > 0, "pool capacity must be positive");
        LegacyPool {
            frames: HashMap::with_capacity(cfg.capacity),
            candidates: BTreeSet::new(),
            use_seq: 0,
            stats: PoolStats::default(),
            cfg,
        }
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    fn candidate_key(&self, frame: &Frame, id: PageId) -> (u8, u64, PageId) {
        match self.cfg.policy {
            ReplacementPolicy::Lru => (PagePriority::Normal as u8, frame.last_use, id),
            ReplacementPolicy::PriorityLru => (frame.priority as u8, frame.last_use, id),
            ReplacementPolicy::Lru2 => (PagePriority::Normal as u8, frame.prev_use, id),
        }
    }

    pub fn fix(&mut self, id: PageId) -> FixOutcome {
        self.stats.logical_reads += 1;
        self.use_seq += 1;
        let seq = self.use_seq;
        if let Some(frame) = self.frames.get(&id) {
            self.stats.hits += 1;
            if frame.pin_count == 0 {
                let key = self.candidate_key(frame, id);
                self.candidates.remove(&key);
            }
            let frame = self.frames.get_mut(&id).expect("present");
            frame.pin_count += 1;
            frame.prev_use = frame.last_use;
            frame.last_use = seq;
            FixOutcome::Hit(frame.buf.clone())
        } else {
            self.stats.misses += 1;
            FixOutcome::Miss
        }
    }

    pub fn complete_miss(&mut self, id: PageId, buf: PageBuf) -> StorageResult<()> {
        if let Some(frame) = self.frames.get(&id) {
            if frame.pin_count == 0 {
                let key = self.candidate_key(frame, id);
                self.candidates.remove(&key);
            }
            self.use_seq += 1;
            let seq = self.use_seq;
            let frame = self.frames.get_mut(&id).expect("present");
            frame.pin_count += 1;
            frame.prev_use = frame.last_use;
            frame.last_use = seq;
            return Ok(());
        }
        if self.frames.len() >= self.cfg.capacity {
            let victim =
                self.candidates
                    .iter()
                    .next()
                    .copied()
                    .ok_or(StorageError::PoolExhausted {
                        capacity: self.cfg.capacity,
                    })?;
            self.candidates.remove(&victim);
            self.frames.remove(&victim.2);
            self.stats.evictions += 1;
        }
        self.use_seq += 1;
        self.frames.insert(
            id,
            Frame {
                buf,
                pin_count: 1,
                priority: PagePriority::Normal,
                last_use: self.use_seq,
                prev_use: 0,
            },
        );
        Ok(())
    }

    pub fn release(&mut self, id: PageId, priority: PagePriority) -> StorageResult<()> {
        {
            let frame = self
                .frames
                .get_mut(&id)
                .ok_or(StorageError::NotResident(id))?;
            if frame.pin_count == 0 {
                return Err(StorageError::PinViolation(id));
            }
            frame.pin_count -= 1;
            if frame.priority != priority {
                self.stats.reprioritizations += 1;
            }
            frame.priority = priority;
        }
        let frame = &self.frames[&id];
        if frame.pin_count == 0 {
            let key = self.candidate_key(frame, id);
            self.candidates.insert(key);
        }
        Ok(())
    }

    pub fn next_victim(&self) -> Option<PageId> {
        self.candidates.iter().next().map(|&(_, _, id)| id)
    }

    pub fn resident_pages(&self) -> Vec<ResidentPage> {
        let mut out: Vec<ResidentPage> = self
            .frames
            .iter()
            .map(|(&id, f)| ResidentPage {
                id,
                priority: f.priority,
                pinned: f.pin_count > 0,
            })
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    pub fn discard(&mut self, id: PageId) {
        let Some(frame) = self.frames.get(&id) else {
            return;
        };
        if frame.pin_count > 0 {
            return;
        }
        let key = self.candidate_key(frame, id);
        self.candidates.remove(&key);
        self.frames.remove(&id);
    }

    pub fn clear_unpinned(&mut self) {
        for (_, _, id) in std::mem::take(&mut self.candidates) {
            self.frames.remove(&id);
        }
    }
}

/// Property test: the frame-table pool and the legacy pool are
/// observationally equivalent under randomized operation sequences.
#[cfg(test)]
mod equivalence {
    use super::*;
    use crate::page::{zeroed_page, FileId};
    use crate::pool::BufferPool;
    use scanshare_prng::Rng;

    const CAPACITY: usize = 32;
    const UNIVERSE: u64 = 96;
    const STEPS: usize = 4000;

    fn pid(p: u64) -> PageId {
        PageId::new(FileId(0), p as u32)
    }

    /// The same universe spread over four files and page numbers 2³¹
    /// apart, `PageId::new(FileId(u32::MAX), u32::MAX)` included: a page
    /// table may neither size itself by key magnitude nor confuse two
    /// ids that agree in their low bits.
    fn sparse_pid(p: u64) -> PageId {
        let file = [0, 1, 7, u32::MAX][(p % 4) as usize];
        let page = match (p / 4) % 3 {
            0 => (p / 12) as u32,
            1 => (1 << 31) + (p / 12) as u32,
            _ => u32::MAX - (p / 12) as u32,
        };
        PageId::new(FileId(file), page)
    }

    fn buf(tag: u64) -> PageBuf {
        let mut b = zeroed_page();
        b[0] = tag as u8;
        b.freeze()
    }

    fn same_error(a: &StorageError, b: &StorageError) -> bool {
        matches!(
            (a, b),
            (
                StorageError::PoolExhausted { .. },
                StorageError::PoolExhausted { .. }
            ) | (StorageError::NotResident(_), StorageError::NotResident(_))
                | (StorageError::PinViolation(_), StorageError::PinViolation(_))
        )
    }

    /// Drive both pools through one randomized schedule, asserting at
    /// every step that the observable behavior matches: hit/miss
    /// outcomes, error kinds, the next eviction victim, residency, and
    /// (at the end) the full stats block. The frame-table pool is driven
    /// through its slot API and releases half its pins by slot, so
    /// release-by-slot is held to the oracle's release-by-id.
    fn drive(policy: ReplacementPolicy, seed: u64, pid: fn(u64) -> PageId) {
        let mut fast = BufferPool::new(PoolConfig::new(CAPACITY, policy));
        let mut oracle = LegacyPool::new(PoolConfig::new(CAPACITY, policy));
        let mut rng = Rng::seed_from_u64(seed);
        // Outstanding pins (with multiplicity), so releases are mostly
        // legal and the pool never livelocks fully pinned.
        let mut pinned: Vec<(PageId, u32)> = Vec::new();
        // Release the frame-table pool's pin by slot or by id, as drawn.
        let release = |fast: &mut BufferPool, by_slot: bool, id, slot, prio| {
            if by_slot {
                fast.release_slot(id, slot, prio)
            } else {
                fast.release(id, prio)
            }
        };

        for step in 0..STEPS {
            let roll = rng.next_u64() % 100;
            if (roll < 55 && pinned.len() < CAPACITY - 2) || pinned.is_empty() {
                // Visit: fix a random page, complete on a miss, then
                // either release immediately or keep the pin around.
                let id = pid(rng.next_u64() % UNIVERSE);
                let a = fast.fix_slot(id);
                let b = oracle.fix(id);
                assert_eq!(
                    a.is_some(),
                    matches!(b, FixOutcome::Hit(_)),
                    "{policy:?} seed {seed} step {step}: fix({id:?}) outcome diverged"
                );
                let slot = match a {
                    Some(slot) => slot,
                    None => {
                        let ra = fast.complete_miss_slot(id, buf(id.page as u64));
                        let rb = oracle.complete_miss(id, buf(id.page as u64));
                        match (&ra, &rb) {
                            (Ok(slot), Ok(())) => *slot,
                            (Err(ea), Err(eb)) if same_error(ea, eb) => {
                                // Not installed (all frames pinned); no pin
                                // to track. Continue with the next op.
                                assert_eq!(fast.next_victim(), oracle.next_victim());
                                continue;
                            }
                            _ => panic!(
                                "{policy:?} seed {seed} step {step}: complete_miss diverged: {ra:?} vs {rb:?}"
                            ),
                        }
                    }
                };
                assert_eq!(fast.slot_page(slot), id);
                assert!(
                    (slot as usize) < CAPACITY,
                    "slot {slot} past the frame table"
                );
                if rng.next_u64() % 10 < 7 {
                    let prio = priority(rng.next_u64());
                    release(&mut fast, step % 2 == 0, id, slot, prio).unwrap();
                    oracle.release(id, prio).unwrap();
                } else {
                    pinned.push((id, slot));
                }
            } else if roll < 85 && !pinned.is_empty() {
                // Release one outstanding pin with a random priority.
                let idx = (rng.next_u64() as usize) % pinned.len();
                let (id, slot) = pinned.swap_remove(idx);
                assert_eq!(fast.slot_page(slot), id, "a pinned frame changed tenant");
                let prio = priority(rng.next_u64());
                release(&mut fast, step % 2 == 0, id, slot, prio).unwrap();
                oracle.release(id, prio).unwrap();
            } else if roll < 92 {
                // Discard a random page (may be absent or pinned: no-op).
                let id = pid(rng.next_u64() % UNIVERSE);
                fast.discard(id);
                oracle.discard(id);
            } else if roll < 97 {
                // Error path: release a page that may not be resident or
                // may be unpinned — both pools must fail the same way,
                // whatever slot (free, someone else's, past the table)
                // the caller claims for it.
                let id = pid(rng.next_u64() % UNIVERSE);
                if !pinned.iter().any(|&(p, _)| p == id) {
                    let prio = priority(rng.next_u64());
                    let slot = (rng.next_u64() % (CAPACITY as u64 + 4)) as u32;
                    let got = release(&mut fast, step % 2 == 0, id, slot, prio);
                    match (got, oracle.release(id, prio)) {
                        (Ok(()), Ok(())) => panic!(
                            "{policy:?} seed {seed} step {step}: release of unpinned {id:?} succeeded"
                        ),
                        (Err(ea), Err(eb)) => assert!(
                            same_error(&ea, &eb),
                            "{policy:?} seed {seed} step {step}: error kinds diverged: {ea:?} vs {eb:?}"
                        ),
                        (ra, rb) => panic!(
                            "{policy:?} seed {seed} step {step}: release diverged: {ra:?} vs {rb:?}"
                        ),
                    }
                }
            } else {
                fast.clear_unpinned();
                oracle.clear_unpinned();
            }

            // The victim choice is the pool's entire observable policy:
            // check it after every operation.
            assert_eq!(
                fast.next_victim(),
                oracle.next_victim(),
                "{policy:?} seed {seed} step {step}: next victim diverged"
            );
            assert_eq!(fast.len(), oracle.len());
            if step % 256 == 0 {
                assert_eq!(
                    fast.resident_pages(),
                    oracle.resident_pages(),
                    "{policy:?} seed {seed} step {step}: residency diverged"
                );
            }
        }

        assert_eq!(fast.resident_pages(), oracle.resident_pages());
        assert_eq!(
            format!("{:?}", fast.stats()),
            format!("{:?}", oracle.stats()),
            "{policy:?} seed {seed}: final stats diverged"
        );
    }

    fn priority(roll: u64) -> PagePriority {
        match roll % 3 {
            0 => PagePriority::Low,
            1 => PagePriority::Normal,
            _ => PagePriority::High,
        }
    }

    #[test]
    fn frame_table_pool_matches_legacy_oracle() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::PriorityLru,
            ReplacementPolicy::Lru2,
        ] {
            for seed in [1, 7, 42, 0xC0FFEE] {
                drive(policy, seed, pid);
                drive(policy, seed, sparse_pid);
            }
        }
    }

    /// Same randomized schedule, but a seeded fault injector aborts a
    /// quarter of the miss completions — modeling the engine's new read
    /// error path, where a faulted physical read means `complete_miss`
    /// is never called for the page. Both pools must stay equivalent
    /// through every abandoned miss: same victims, same residency, same
    /// stats.
    fn drive_with_read_faults(policy: ReplacementPolicy, seed: u64) {
        use crate::fault::{FaultInjector, FaultKind, FaultOutcome, FaultPlan, FaultRule};
        use crate::sim::SimTime;
        let mut inj = FaultInjector::new(FaultPlan {
            seed,
            rules: vec![FaultRule {
                device: None,
                pages: None,
                from_us: 0,
                until_us: None,
                fault: FaultKind::TransientError { probability: 0.25 },
            }],
        });
        let mut fast = BufferPool::new(PoolConfig::new(CAPACITY, policy));
        let mut oracle = LegacyPool::new(PoolConfig::new(CAPACITY, policy));
        let mut rng = Rng::seed_from_u64(seed ^ 0xfa17);
        let mut pinned: Vec<PageId> = Vec::new();
        let mut aborted = 0u64;

        for step in 0..STEPS {
            let roll = rng.next_u64() % 100;
            if (roll < 70 && pinned.len() < CAPACITY - 2) || pinned.is_empty() {
                let id = pid(rng.next_u64() % UNIVERSE);
                let a = fast.fix(id);
                let b = oracle.fix(id);
                assert_eq!(
                    matches!(a, FixOutcome::Hit(_)),
                    matches!(b, FixOutcome::Hit(_)),
                    "{policy:?} seed {seed} step {step}: fix({id:?}) outcome diverged"
                );
                let mut holds_pin = matches!(a, FixOutcome::Hit(_));
                if matches!(a, FixOutcome::Miss) {
                    let now = SimTime::from_micros(step as u64);
                    if matches!(
                        inj.check(now, 0, id.page as u64),
                        FaultOutcome::Error { .. }
                    ) {
                        // The read failed: neither pool installs the page.
                        aborted += 1;
                    } else {
                        fast.complete_miss(id, buf(id.page as u64)).unwrap();
                        oracle.complete_miss(id, buf(id.page as u64)).unwrap();
                        holds_pin = true;
                    }
                }
                if holds_pin {
                    if rng.next_u64() % 10 < 7 {
                        let prio = priority(rng.next_u64());
                        fast.release(id, prio).unwrap();
                        oracle.release(id, prio).unwrap();
                    } else {
                        pinned.push(id);
                    }
                }
            } else if roll < 90 && !pinned.is_empty() {
                let idx = (rng.next_u64() as usize) % pinned.len();
                let id = pinned.swap_remove(idx);
                let prio = priority(rng.next_u64());
                fast.release(id, prio).unwrap();
                oracle.release(id, prio).unwrap();
            } else {
                let id = pid(rng.next_u64() % UNIVERSE);
                fast.discard(id);
                oracle.discard(id);
            }
            assert_eq!(
                fast.next_victim(),
                oracle.next_victim(),
                "{policy:?} seed {seed} step {step}: next victim diverged"
            );
            assert_eq!(fast.len(), oracle.len());
        }
        assert!(aborted > 0, "{policy:?} seed {seed}: plan never fired");
        assert_eq!(fast.resident_pages(), oracle.resident_pages());
        assert_eq!(
            format!("{:?}", fast.stats()),
            format!("{:?}", oracle.stats()),
            "{policy:?} seed {seed}: final stats diverged"
        );
    }

    #[test]
    fn pools_stay_equivalent_when_miss_completions_fault() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::PriorityLru,
            ReplacementPolicy::Lru2,
        ] {
            for seed in [3, 11, 0xFA017] {
                drive_with_read_faults(policy, seed);
            }
        }
    }

    /// Zero-capacity pools are a configuration bug, and both
    /// implementations must reject them the same way: loudly, at
    /// construction, before any page traffic can hit them.
    #[test]
    fn zero_capacity_is_rejected_identically_by_both_pools() {
        let fast = std::panic::catch_unwind(|| {
            BufferPool::new(PoolConfig::new(0, ReplacementPolicy::Lru))
        });
        let oracle = std::panic::catch_unwind(|| {
            LegacyPool::new(PoolConfig::new(0, ReplacementPolicy::Lru))
        });
        assert!(fast.is_err(), "frame-table pool accepted capacity 0");
        assert!(oracle.is_err(), "legacy pool accepted capacity 0");
    }

    /// With every frame pinned, both pools report the same exhaustion:
    /// no victim candidate, `PoolExhausted` from `complete_miss`, and an
    /// identical recovery once a single pin is dropped.
    #[test]
    fn fully_pinned_pools_exhaust_and_recover_identically() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::PriorityLru,
            ReplacementPolicy::Lru2,
        ] {
            let cap = 4;
            let mut fast = BufferPool::new(PoolConfig::new(cap, policy));
            let mut oracle = LegacyPool::new(PoolConfig::new(cap, policy));
            for p in 0..cap as u64 {
                let id = pid(p);
                assert!(matches!(fast.fix(id), FixOutcome::Miss));
                assert!(matches!(oracle.fix(id), FixOutcome::Miss));
                fast.complete_miss(id, buf(p)).unwrap();
                oracle.complete_miss(id, buf(p)).unwrap();
            }
            assert_eq!(fast.next_victim(), None);
            assert_eq!(oracle.next_victim(), None);

            let extra = pid(99);
            assert!(matches!(fast.fix(extra), FixOutcome::Miss));
            assert!(matches!(oracle.fix(extra), FixOutcome::Miss));
            let ea = fast.complete_miss(extra, buf(99)).unwrap_err();
            let eb = oracle.complete_miss(extra, buf(99)).unwrap_err();
            assert!(
                same_error(&ea, &eb),
                "{policy:?}: exhaustion errors diverged: {ea:?} vs {eb:?}"
            );
            assert!(matches!(ea, StorageError::PoolExhausted { capacity: 4 }));

            // One release frees exactly one victim slot in both pools.
            fast.release(pid(2), PagePriority::Normal).unwrap();
            oracle.release(pid(2), PagePriority::Normal).unwrap();
            assert_eq!(fast.next_victim(), oracle.next_victim());
            assert!(matches!(fast.fix(extra), FixOutcome::Miss));
            assert!(matches!(oracle.fix(extra), FixOutcome::Miss));
            fast.complete_miss(extra, buf(99)).unwrap();
            oracle.complete_miss(extra, buf(99)).unwrap();
            assert_eq!(fast.next_victim(), oracle.next_victim());
            assert_eq!(fast.resident_pages(), oracle.resident_pages());
            assert_eq!(
                format!("{:?}", fast.stats()),
                format!("{:?}", oracle.stats()),
                "{policy:?}: stats diverged after recovery"
            );
        }
    }
}
