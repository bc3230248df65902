//! Buffer pool with priority-aware replacement.
//!
//! The papers treat the caching subsystem as a black box with one extra
//! knob: every scan *releases* each processed page with a **priority**
//! ("release page(l) with priority p"), and the replacement policy prefers
//! to victimize low-priority pages first. The scan-sharing manager turns
//! that knob: group **leaders** release pages with high priority (the rest
//! of the group still needs them), **trailers** release with low priority
//! (nobody is following, the page can go).
//!
//! Two policies are provided:
//!
//! * [`ReplacementPolicy::Lru`] — the baseline: priorities are ignored and
//!   the least-recently-used unpinned page is evicted,
//! * [`ReplacementPolicy::PriorityLru`] — the prototype: the victim is the
//!   unpinned page with the lowest priority, LRU within a priority class.
//!
//! # Frame table
//!
//! Frames live in a slab (`Vec<Frame>` indexed by a `u32` slot, with a
//! free-slot list) and the *page table*, an [`IdMap`] from `PageId` to
//! slot, maps resident pages to theirs. A caller that keeps the slot its
//! fix returned needs the page table once per visit: the frame's bytes,
//! its availability time and its release are all reached by slot.
//! Eviction candidates — unpinned frames — are threaded onto one
//! intrusive doubly-linked list per priority class, ordered by ascending
//! `last_use` from the head; the victim is the head of the lowest
//! non-empty class. Because a scan's releases may arrive out of
//! fix order (extents release in sorted-page order, RID fetches in RID
//! order), enqueueing walks back from the list tail to the frame's
//! `last_use` position — O(1) amortized for the common mostly-in-order
//! release streams, and correct for all of them. `fix`, `release`,
//! reprioritize, and evict are therefore O(1); only [`ReplacementPolicy::Lru2`]
//! keeps a small ordered set, because its victim key (`prev_use`) is not
//! unique and needs the page-id tie-break.
//!
//! The pool does not perform I/O itself. `fix` either returns the resident
//! page or reports a miss; the caller loads the bytes (paying the disk
//! model's cost) and hands them back via `complete_miss`. This mirrors the
//! paper's architecture where the sharing manager never talks to the disk.
//! Callers that only inspect rows can use the slot-based API
//! ([`BufferPool::fix_slot`], [`BufferPool::slot_buf`]) to borrow the page
//! bytes without cloning the `Bytes` handle on every hit.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::error::{StorageError, StorageResult};
use crate::page::{IdMap, PageBuf, PageId};
use crate::sim::SimTime;

/// Priority assigned to a page when it is released.
///
/// Ordering matters: lower values are victimized first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PagePriority {
    /// Evict first: no ongoing scan will need this page soon (trailers).
    Low = 0,
    /// Default priority.
    Normal = 1,
    /// Keep if possible: following scans need this page soon (leaders).
    High = 2,
}

/// Which replacement policy the pool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Classic LRU; release priorities are accepted but ignored.
    Lru,
    /// Priority-first, LRU within a priority class.
    PriorityLru,
    /// LRU-2 (LRU-K with K = 2, O'Neil et al.): victimize the page whose
    /// *second-to-last* access is oldest; pages referenced only once are
    /// evicted before any re-referenced page. A general-purpose
    /// improvement from the paper's related work — included to show that
    /// smarter generic replacement does not rescue concurrent scans the
    /// way coordinated sharing does.
    Lru2,
}

/// Pool construction parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolConfig {
    /// Number of page frames.
    pub capacity: usize,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl PoolConfig {
    /// Convenience constructor.
    pub fn new(capacity: usize, policy: ReplacementPolicy) -> Self {
        PoolConfig { capacity, policy }
    }
}

/// Counters maintained by the pool.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PoolStats {
    /// Total `fix` calls.
    pub logical_reads: u64,
    /// `fix` calls satisfied from a resident frame.
    pub hits: u64,
    /// `fix` calls that required a physical read.
    pub misses: u64,
    /// Frames victimized to make room.
    pub evictions: u64,
    /// Releases whose priority hint *changed* the frame's priority — the
    /// release-path re-prioritizations of §7.3 (leader marks pages High,
    /// trailer marks them Low). Absent in older artifacts.
    #[serde(default)]
    pub reprioritizations: u64,
}

impl PoolStats {
    /// Hit ratio in [0, 1]; zero when no reads occurred.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            self.hits as f64 / self.logical_reads as f64
        }
    }
}

/// One resident frame, as reported by [`BufferPool::resident_pages`] —
/// what a live dashboard needs to draw a residency heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidentPage {
    /// The resident page.
    pub id: PageId,
    /// Its current release priority.
    pub priority: PagePriority,
    /// Whether it is pinned right now.
    pub pinned: bool,
}

/// Result of a `fix` call.
#[derive(Debug, Clone)]
pub enum FixOutcome {
    /// The page is resident; it is now pinned and its bytes are returned.
    Hit(PageBuf),
    /// The page is not resident. The caller must load it and call
    /// `complete_miss`. No frame is reserved yet.
    Miss,
}

/// Link sentinel for the intrusive lists ("no neighbor").
const NIL: u32 = u32::MAX;

/// Number of priority classes (`PagePriority` has three variants).
const CLASSES: usize = 3;

#[derive(Debug)]
struct Frame {
    id: PageId,
    buf: PageBuf,
    pin_count: u32,
    priority: PagePriority,
    last_use: u64,
    /// Second-to-last access (0 until the page is re-referenced).
    prev_use: u64,
    /// When the read that installed this tenant completes (see
    /// [`BufferPool::complete_miss_at`]).
    available_at: SimTime,
    /// Intrusive candidate-list links; `NIL` when pinned or free.
    prev: u32,
    next: u32,
}

/// One intrusive candidate list: unpinned frames of one priority class,
/// ordered by ascending `last_use` from `head` (the victim end).
#[derive(Debug, Clone, Copy)]
struct CandidateList {
    head: u32,
    tail: u32,
}

impl CandidateList {
    const fn empty() -> Self {
        CandidateList {
            head: NIL,
            tail: NIL,
        }
    }
}

/// The buffer pool.
///
/// ```
/// use scanshare_storage::{BufferPool, PoolConfig, ReplacementPolicy,
///                         PagePriority, FixOutcome, PageId, FileId,
///                         page::zeroed_page};
///
/// let mut pool = BufferPool::new(PoolConfig::new(2, ReplacementPolicy::PriorityLru));
/// let page = PageId::new(FileId(0), 7);
/// // Miss: the caller loads the bytes and completes the fix.
/// assert!(matches!(pool.fix(page), FixOutcome::Miss));
/// pool.complete_miss(page, zeroed_page().freeze()).unwrap();
/// // Release with the paper's priority hint.
/// pool.release(page, PagePriority::High).unwrap();
/// assert!(matches!(pool.fix(page), FixOutcome::Hit(_)));
/// pool.release(page, PagePriority::High).unwrap();
/// assert_eq!(pool.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct BufferPool {
    cfg: PoolConfig,
    /// Slab of frames; slots are stable while a page stays resident.
    frames: Vec<Frame>,
    /// Slots available for reuse (their frames are not resident).
    free: Vec<u32>,
    /// Resident page → slot.
    map: IdMap<PageId, u32>,
    /// Candidate lists indexed by priority class. Under plain LRU every
    /// candidate lives in the `Normal` class; under priority-LRU a frame
    /// lives in the class of its current priority.
    lists: [CandidateList; CLASSES],
    /// LRU-2 candidate order: `(prev_use, id)` ascending. `prev_use` is
    /// zero for every once-referenced page, so unlike `last_use` it is
    /// not unique and the id tie-break is load-bearing.
    lru2: BTreeSet<(u64, PageId)>,
    use_seq: u64,
    stats: PoolStats,
}

impl BufferPool {
    /// Create a pool.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(cfg.capacity > 0, "pool capacity must be positive");
        BufferPool {
            frames: Vec::with_capacity(cfg.capacity),
            free: Vec::new(),
            map: IdMap::with_capacity_and_hasher(cfg.capacity, Default::default()),
            lists: [CandidateList::empty(); CLASSES],
            lru2: BTreeSet::new(),
            use_seq: 0,
            stats: PoolStats::default(),
            cfg,
        }
    }

    /// Number of frames configured.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.cfg.policy
    }

    /// Whether `id` is resident (without touching its recency).
    pub fn contains(&self, id: PageId) -> bool {
        self.map.contains_key(&id)
    }

    /// Counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Priority class whose candidate list holds (or would hold) `slot`.
    /// Plain LRU ignores priorities, so everything shares one class.
    fn class_of(&self, slot: u32) -> usize {
        match self.cfg.policy {
            ReplacementPolicy::Lru => PagePriority::Normal as usize,
            ReplacementPolicy::PriorityLru => self.frames[slot as usize].priority as usize,
            ReplacementPolicy::Lru2 => unreachable!("LRU-2 candidates live in the ordered set"),
        }
    }

    /// Make an unpinned frame an eviction candidate.
    ///
    /// List invariant: each class list is ordered by ascending `last_use`.
    /// Releases usually arrive in fix order, so the insertion point is the
    /// tail and the walk is O(1) amortized; out-of-order releases (sorted
    /// extent batches, RID fetches) walk only past frames used *after*
    /// this one.
    fn enqueue(&mut self, slot: u32) {
        if self.cfg.policy == ReplacementPolicy::Lru2 {
            let f = &self.frames[slot as usize];
            self.lru2.insert((f.prev_use, f.id));
            return;
        }
        let class = self.class_of(slot);
        let last_use = self.frames[slot as usize].last_use;
        let mut after = self.lists[class].tail;
        while after != NIL && self.frames[after as usize].last_use > last_use {
            after = self.frames[after as usize].prev;
        }
        let before = if after == NIL {
            self.lists[class].head
        } else {
            self.frames[after as usize].next
        };
        {
            let f = &mut self.frames[slot as usize];
            f.prev = after;
            f.next = before;
        }
        if after == NIL {
            self.lists[class].head = slot;
        } else {
            self.frames[after as usize].next = slot;
        }
        if before == NIL {
            self.lists[class].tail = slot;
        } else {
            self.frames[before as usize].prev = slot;
        }
    }

    /// Remove a candidate frame from its list/set (it is being pinned,
    /// discarded, or evicted).
    fn dequeue(&mut self, slot: u32) {
        if self.cfg.policy == ReplacementPolicy::Lru2 {
            let f = &self.frames[slot as usize];
            self.lru2.remove(&(f.prev_use, f.id));
            return;
        }
        let class = self.class_of(slot);
        let (p, n) = {
            let f = &self.frames[slot as usize];
            (f.prev, f.next)
        };
        if p == NIL {
            self.lists[class].head = n;
        } else {
            self.frames[p as usize].next = n;
        }
        if n == NIL {
            self.lists[class].tail = p;
        } else {
            self.frames[n as usize].prev = p;
        }
        let f = &mut self.frames[slot as usize];
        f.prev = NIL;
        f.next = NIL;
    }

    /// The slot that would be evicted next: the head of the lowest
    /// non-empty priority class (LRU-2: the set minimum).
    fn victim_slot(&self) -> Option<u32> {
        if self.cfg.policy == ReplacementPolicy::Lru2 {
            return self.lru2.iter().next().map(|(_, id)| self.map[id]);
        }
        self.lists
            .iter()
            .find_map(|l| (l.head != NIL).then_some(l.head))
    }

    /// Pin an already-resident slot and refresh its recency.
    fn pin_resident(&mut self, slot: u32) {
        if self.frames[slot as usize].pin_count == 0 {
            self.dequeue(slot);
        }
        self.use_seq += 1;
        let seq = self.use_seq;
        let f = &mut self.frames[slot as usize];
        f.pin_count += 1;
        f.prev_use = f.last_use;
        f.last_use = seq;
    }

    /// Try to pin `id`. On a hit the frame's recency is refreshed and the
    /// bytes are returned; on a miss the caller is expected to load the
    /// page and call [`BufferPool::complete_miss`].
    pub fn fix(&mut self, id: PageId) -> FixOutcome {
        match self.fix_slot(id) {
            Some(slot) => FixOutcome::Hit(self.frames[slot as usize].buf.clone()),
            None => FixOutcome::Miss,
        }
    }

    /// Zero-clone `fix`: on a hit the page is pinned and its slot is
    /// returned; borrow the bytes via [`BufferPool::slot_buf`]. `None`
    /// is a miss — load the page and call
    /// [`BufferPool::complete_miss_slot`]. The slot stays valid (and the
    /// frame is never recycled) for as long as the page remains pinned.
    pub fn fix_slot(&mut self, id: PageId) -> Option<u32> {
        self.stats.logical_reads += 1;
        if let Some(&slot) = self.map.get(&id) {
            self.stats.hits += 1;
            self.pin_resident(slot);
            Some(slot)
        } else {
            self.use_seq += 1;
            self.stats.misses += 1;
            None
        }
    }

    /// Bytes of a pinned frame (see [`BufferPool::fix_slot`]).
    pub fn slot_buf(&self, slot: u32) -> &PageBuf {
        &self.frames[slot as usize].buf
    }

    /// Page held by a pinned frame (see [`BufferPool::fix_slot`]).
    pub fn slot_page(&self, slot: u32) -> PageId {
        self.frames[slot as usize].id
    }

    /// When a pinned frame's bytes are (or were) available: the time its
    /// page was installed with, [`SimTime::ZERO`] if none was given. A
    /// fix that hits before then rides the read still in flight.
    pub fn slot_available_at(&self, slot: u32) -> SimTime {
        self.frames[slot as usize].available_at
    }

    /// Install a page after a miss, evicting if necessary. The page is
    /// pinned for the caller. Fails with [`StorageError::PoolExhausted`]
    /// if every frame is pinned.
    pub fn complete_miss(&mut self, id: PageId, buf: PageBuf) -> StorageResult<()> {
        self.complete_miss_slot(id, buf).map(|_| ())
    }

    /// [`BufferPool::complete_miss`], returning the installed slot for
    /// the zero-clone path.
    pub fn complete_miss_slot(&mut self, id: PageId, buf: PageBuf) -> StorageResult<u32> {
        self.complete_miss_at(id, buf, SimTime::ZERO)
    }

    /// [`BufferPool::complete_miss_slot`] for a read that completes at
    /// `available_at`: the time stays with the frame for as long as this
    /// page does, for [`BufferPool::slot_available_at`] to report.
    pub fn complete_miss_at(
        &mut self,
        id: PageId,
        buf: PageBuf,
        available_at: SimTime,
    ) -> StorageResult<u32> {
        if let Some(&slot) = self.map.get(&id) {
            // Someone else installed it while we were loading; just pin
            // (their bytes win — both loaders read the same page, and the
            // newest read's completion is the one a rider waits for).
            self.pin_resident(slot);
            self.frames[slot as usize].available_at = available_at;
            return Ok(slot);
        }
        let slot = if self.map.len() >= self.cfg.capacity {
            let victim = self.victim_slot().ok_or(StorageError::PoolExhausted {
                capacity: self.cfg.capacity,
            })?;
            self.dequeue(victim);
            let vid = self.frames[victim as usize].id;
            self.map.remove(&vid);
            self.stats.evictions += 1;
            victim
        } else if let Some(slot) = self.free.pop() {
            slot
        } else {
            let slot = self.frames.len() as u32;
            self.frames.push(Frame {
                id,
                buf: PageBuf::new(),
                pin_count: 0,
                priority: PagePriority::Normal,
                last_use: 0,
                prev_use: 0,
                available_at,
                prev: NIL,
                next: NIL,
            });
            slot
        };
        self.use_seq += 1;
        let f = &mut self.frames[slot as usize];
        f.id = id;
        f.buf = buf;
        f.pin_count = 1;
        f.priority = PagePriority::Normal;
        f.last_use = self.use_seq;
        f.prev_use = 0;
        f.available_at = available_at;
        f.prev = NIL;
        f.next = NIL;
        self.map.insert(id, slot);
        Ok(slot)
    }

    /// Unpin a page, attaching the release priority hint — the paper's
    /// "release page with priority p". The hint overwrites any previous
    /// priority: the *last* scan over a page decides its fate, which is
    /// exactly the leader/trailer semantics of §7.3.
    pub fn release(&mut self, id: PageId, priority: PagePriority) -> StorageResult<()> {
        let &slot = self.map.get(&id).ok_or(StorageError::NotResident(id))?;
        self.unpin(slot, priority)
    }

    /// [`BufferPool::release`] for a caller that kept the slot its fix
    /// returned: a pinned frame cannot change tenant, so a pinned frame
    /// holding `id` is its page-table entry and no lookup is needed. Any
    /// other slot gets release-by-id's answer.
    pub fn release_slot(
        &mut self,
        id: PageId,
        slot: u32,
        priority: PagePriority,
    ) -> StorageResult<()> {
        match self.frames.get(slot as usize) {
            Some(f) if f.id == id && f.pin_count > 0 => self.unpin(slot, priority),
            _ => self.release(id, priority),
        }
    }

    /// Drop one pin of the resident frame in `slot`.
    fn unpin(&mut self, slot: u32, priority: PagePriority) -> StorageResult<()> {
        let f = &mut self.frames[slot as usize];
        if f.pin_count == 0 {
            return Err(StorageError::PinViolation(f.id));
        }
        f.pin_count -= 1;
        if f.priority != priority {
            self.stats.reprioritizations += 1;
        }
        f.priority = priority;
        if f.pin_count == 0 {
            self.enqueue(slot);
        }
        Ok(())
    }

    /// The page that would be evicted next, if any (for tests/inspection).
    pub fn next_victim(&self) -> Option<PageId> {
        self.victim_slot().map(|s| self.frames[s as usize].id)
    }

    /// Snapshot of every resident frame in page-id order — the raw
    /// material for a pool-residency heatmap.
    pub fn resident_pages(&self) -> Vec<ResidentPage> {
        let mut out: Vec<ResidentPage> = self
            .map
            .values()
            .map(|&slot| {
                let f = &self.frames[slot as usize];
                ResidentPage {
                    id: f.id,
                    priority: f.priority,
                    pinned: f.pin_count > 0,
                }
            })
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// Drop one unpinned resident page (no-op if absent or pinned).
    /// Real engines use this to recycle the buffers of large sequential
    /// scans ("ring buffers"), preventing one scan from flushing the
    /// pool — the vanilla baseline behavior of the papers.
    pub fn discard(&mut self, id: PageId) {
        let Some(&slot) = self.map.get(&id) else {
            return;
        };
        if self.frames[slot as usize].pin_count > 0 {
            return;
        }
        self.dequeue(slot);
        self.frames[slot as usize].buf = PageBuf::new();
        self.map.remove(&id);
        self.free.push(slot);
    }

    /// Drop every unpinned frame (used between experiment phases so base
    /// and scan-sharing runs start cold).
    pub fn clear_unpinned(&mut self) {
        if self.cfg.policy == ReplacementPolicy::Lru2 {
            for (_, id) in std::mem::take(&mut self.lru2) {
                let slot = self.map.remove(&id).expect("candidate is resident");
                self.frames[slot as usize].buf = PageBuf::new();
                self.free.push(slot);
            }
            return;
        }
        for class in 0..CLASSES {
            let mut at = self.lists[class].head;
            while at != NIL {
                let f = &mut self.frames[at as usize];
                let next = f.next;
                f.prev = NIL;
                f.next = NIL;
                f.buf = PageBuf::new();
                self.map.remove(&f.id);
                self.free.push(at);
                at = next;
            }
            self.lists[class] = CandidateList::empty();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{zeroed_page, FileId};

    fn pid(p: u32) -> PageId {
        PageId::new(FileId(0), p)
    }

    fn buf(tag: u8) -> PageBuf {
        let mut b = zeroed_page();
        b[0] = tag;
        b.freeze()
    }

    fn pool(capacity: usize, policy: ReplacementPolicy) -> BufferPool {
        BufferPool::new(PoolConfig::new(capacity, policy))
    }

    /// Fix+load+release helper simulating a full page visit.
    fn visit(p: &mut BufferPool, id: PageId, prio: PagePriority) {
        match p.fix(id) {
            FixOutcome::Hit(_) => {}
            FixOutcome::Miss => p.complete_miss(id, buf(id.page as u8)).unwrap(),
        }
        p.release(id, prio).unwrap();
    }

    #[test]
    fn hit_after_miss() {
        let mut p = pool(2, ReplacementPolicy::Lru);
        assert!(matches!(p.fix(pid(0)), FixOutcome::Miss));
        p.complete_miss(pid(0), buf(7)).unwrap();
        p.release(pid(0), PagePriority::Normal).unwrap();
        match p.fix(pid(0)) {
            FixOutcome::Hit(b) => assert_eq!(b[0], 7),
            FixOutcome::Miss => panic!("expected hit"),
        }
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().logical_reads, 2);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut p = pool(3, ReplacementPolicy::Lru);
        for i in 0..10 {
            visit(&mut p, pid(i), PagePriority::Normal);
            assert!(p.len() <= 3);
        }
        assert_eq!(p.stats().evictions, 7);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = pool(2, ReplacementPolicy::Lru);
        visit(&mut p, pid(0), PagePriority::Normal);
        visit(&mut p, pid(1), PagePriority::Normal);
        visit(&mut p, pid(0), PagePriority::Normal); // refresh 0
        visit(&mut p, pid(2), PagePriority::Normal); // evicts 1
        assert!(p.contains(pid(0)));
        assert!(!p.contains(pid(1)));
        assert!(p.contains(pid(2)));
    }

    #[test]
    fn lru_policy_ignores_priorities() {
        let mut p = pool(2, ReplacementPolicy::Lru);
        visit(&mut p, pid(0), PagePriority::Low);
        visit(&mut p, pid(1), PagePriority::High);
        // Under pure LRU the victim is page 0 (older), despite page 1
        // being... wait, priorities ignored: oldest is 0.
        assert_eq!(p.next_victim(), Some(pid(0)));
    }

    #[test]
    fn priority_lru_evicts_low_priority_first() {
        let mut p = pool(3, ReplacementPolicy::PriorityLru);
        visit(&mut p, pid(0), PagePriority::High);
        visit(&mut p, pid(1), PagePriority::Low);
        visit(&mut p, pid(2), PagePriority::Normal);
        // Low beats recency: page 1 goes first even though 0 is older.
        assert_eq!(p.next_victim(), Some(pid(1)));
        visit(&mut p, pid(3), PagePriority::Normal);
        assert!(!p.contains(pid(1)));
        assert!(p.contains(pid(0)));
    }

    #[test]
    fn priority_lru_is_lru_within_class() {
        let mut p = pool(3, ReplacementPolicy::PriorityLru);
        visit(&mut p, pid(0), PagePriority::Normal);
        visit(&mut p, pid(1), PagePriority::Normal);
        visit(&mut p, pid(0), PagePriority::Normal); // refresh 0
        assert_eq!(p.next_victim(), Some(pid(1)));
    }

    #[test]
    fn last_release_wins_the_priority() {
        let mut p = pool(2, ReplacementPolicy::PriorityLru);
        visit(&mut p, pid(0), PagePriority::High); // leader keeps it
        visit(&mut p, pid(1), PagePriority::Normal);
        visit(&mut p, pid(0), PagePriority::Low); // trailer lets it go
        assert_eq!(p.next_victim(), Some(pid(0)));
    }

    #[test]
    fn pinned_pages_are_not_victimized() {
        let mut p = pool(2, ReplacementPolicy::Lru);
        assert!(matches!(p.fix(pid(0)), FixOutcome::Miss));
        p.complete_miss(pid(0), buf(0)).unwrap(); // stays pinned
        visit(&mut p, pid(1), PagePriority::Normal);
        visit(&mut p, pid(2), PagePriority::Normal); // must evict 1, not 0
        assert!(p.contains(pid(0)));
        assert!(!p.contains(pid(1)));
        p.release(pid(0), PagePriority::Normal).unwrap();
    }

    #[test]
    fn all_pinned_pool_reports_exhaustion() {
        let mut p = pool(1, ReplacementPolicy::Lru);
        assert!(matches!(p.fix(pid(0)), FixOutcome::Miss));
        p.complete_miss(pid(0), buf(0)).unwrap();
        let err = p.complete_miss(pid(1), buf(1)).unwrap_err();
        assert!(matches!(err, StorageError::PoolExhausted { .. }));
    }

    #[test]
    fn double_pin_requires_double_release() {
        let mut p = pool(2, ReplacementPolicy::Lru);
        assert!(matches!(p.fix(pid(0)), FixOutcome::Miss));
        p.complete_miss(pid(0), buf(0)).unwrap();
        assert!(matches!(p.fix(pid(0)), FixOutcome::Hit(_)));
        p.release(pid(0), PagePriority::Normal).unwrap();
        // Still pinned once: not a candidate.
        assert_eq!(p.next_victim(), None);
        p.release(pid(0), PagePriority::Normal).unwrap();
        assert_eq!(p.next_victim(), Some(pid(0)));
    }

    #[test]
    fn release_of_unfixed_page_errors() {
        let mut p = pool(2, ReplacementPolicy::Lru);
        assert!(matches!(
            p.release(pid(0), PagePriority::Normal).unwrap_err(),
            StorageError::NotResident(_)
        ));
        visit(&mut p, pid(0), PagePriority::Normal);
        assert!(matches!(
            p.release(pid(0), PagePriority::Normal).unwrap_err(),
            StorageError::PinViolation(_)
        ));
    }

    #[test]
    fn concurrent_miss_completion_just_pins() {
        let mut p = pool(2, ReplacementPolicy::Lru);
        assert!(matches!(p.fix(pid(0)), FixOutcome::Miss));
        assert!(matches!(p.fix(pid(0)), FixOutcome::Miss));
        p.complete_miss(pid(0), buf(1)).unwrap();
        p.complete_miss(pid(0), buf(2)).unwrap(); // second loader
        assert_eq!(p.len(), 1);
        p.release(pid(0), PagePriority::Normal).unwrap();
        assert_eq!(p.next_victim(), None); // still pinned once
        p.release(pid(0), PagePriority::Normal).unwrap();
        assert_eq!(p.next_victim(), Some(pid(0)));
    }

    #[test]
    fn clear_unpinned_keeps_pinned_pages() {
        let mut p = pool(3, ReplacementPolicy::Lru);
        visit(&mut p, pid(0), PagePriority::Normal);
        assert!(matches!(p.fix(pid(1)), FixOutcome::Miss));
        p.complete_miss(pid(1), buf(1)).unwrap();
        p.clear_unpinned();
        assert!(!p.contains(pid(0)));
        assert!(p.contains(pid(1)));
    }

    #[test]
    fn lru2_evicts_once_referenced_pages_first() {
        let mut p = pool(3, ReplacementPolicy::Lru2);
        visit(&mut p, pid(0), PagePriority::Normal);
        visit(&mut p, pid(0), PagePriority::Normal); // page 0 re-referenced
        visit(&mut p, pid(1), PagePriority::Normal);
        visit(&mut p, pid(2), PagePriority::Normal);
        // Pages 1 and 2 were touched once; page 1 (older single touch)
        // goes first even though page 0's first access is the oldest.
        assert_eq!(p.next_victim(), Some(pid(1)));
        visit(&mut p, pid(3), PagePriority::Normal);
        assert!(p.contains(pid(0)));
        assert!(!p.contains(pid(1)));
    }

    #[test]
    fn lru2_orders_by_second_recency() {
        let mut p = pool(2, ReplacementPolicy::Lru2);
        visit(&mut p, pid(0), PagePriority::Normal);
        visit(&mut p, pid(1), PagePriority::Normal);
        visit(&mut p, pid(0), PagePriority::Normal); // 0: prev=1st access
        visit(&mut p, pid(1), PagePriority::Normal); // 1: prev is later
        assert_eq!(p.next_victim(), Some(pid(0)));
    }

    #[test]
    fn lru2_ignores_priorities() {
        let mut p = pool(2, ReplacementPolicy::Lru2);
        visit(&mut p, pid(0), PagePriority::High);
        visit(&mut p, pid(1), PagePriority::Low);
        assert_eq!(p.next_victim(), Some(pid(0)));
    }

    #[test]
    fn resident_pages_snapshot_reports_priority_and_pins() {
        let mut p = pool(3, ReplacementPolicy::PriorityLru);
        visit(&mut p, pid(2), PagePriority::High);
        visit(&mut p, pid(0), PagePriority::Low);
        assert!(matches!(p.fix(pid(1)), FixOutcome::Miss));
        p.complete_miss(pid(1), buf(1)).unwrap(); // left pinned
        let resident = p.resident_pages();
        assert_eq!(
            resident,
            vec![
                ResidentPage {
                    id: pid(0),
                    priority: PagePriority::Low,
                    pinned: false
                },
                ResidentPage {
                    id: pid(1),
                    priority: PagePriority::Normal,
                    pinned: true
                },
                ResidentPage {
                    id: pid(2),
                    priority: PagePriority::High,
                    pinned: false
                },
            ]
        );
        p.release(pid(1), PagePriority::Normal).unwrap();
    }

    #[test]
    fn reprioritizations_count_only_changes() {
        let mut p = pool(2, ReplacementPolicy::PriorityLru);
        // First visit installs at Normal and releases at Normal: no change.
        visit(&mut p, pid(0), PagePriority::Normal);
        assert_eq!(p.stats().reprioritizations, 0);
        // Leader bumps it High, trailer drops it Low, a re-release at the
        // same priority is not a change.
        visit(&mut p, pid(0), PagePriority::High);
        visit(&mut p, pid(0), PagePriority::Low);
        visit(&mut p, pid(0), PagePriority::Low);
        assert_eq!(p.stats().reprioritizations, 2);
        // Old artifacts without the field deserialize to zero.
        let legacy = r#"{"logical_reads":4,"hits":3,"misses":1,"evictions":0}"#;
        let stats: PoolStats = serde_json::from_str(legacy).unwrap();
        assert_eq!(stats.reprioritizations, 0);
    }

    #[test]
    fn hit_ratio_reporting() {
        let mut p = pool(2, ReplacementPolicy::Lru);
        assert_eq!(p.stats().hit_ratio(), 0.0);
        visit(&mut p, pid(0), PagePriority::Normal);
        visit(&mut p, pid(0), PagePriority::Normal);
        assert!((p.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn slot_api_matches_fix_and_borrows_without_cloning() {
        let mut p = pool(2, ReplacementPolicy::PriorityLru);
        assert_eq!(p.fix_slot(pid(0)), None);
        let slot = p.complete_miss_slot(pid(0), buf(9)).unwrap();
        assert_eq!(p.slot_page(slot), pid(0));
        assert_eq!(p.slot_buf(slot)[0], 9);
        p.release(pid(0), PagePriority::Normal).unwrap();
        // Hit path: same slot comes back, no clone needed to read.
        assert_eq!(p.fix_slot(pid(0)), Some(slot));
        assert_eq!(p.slot_buf(slot)[0], 9);
        p.release(pid(0), PagePriority::High).unwrap();
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn slots_are_stable_while_pinned_and_recycled_after_eviction() {
        let mut p = pool(2, ReplacementPolicy::Lru);
        let s0 = p.complete_miss_slot(pid(0), buf(0)).unwrap();
        let s1 = p.complete_miss_slot(pid(1), buf(1)).unwrap();
        assert_ne!(s0, s1);
        // Page 0 stays pinned across an eviction cycle of page 1.
        p.release(pid(1), PagePriority::Normal).unwrap();
        let s2 = p.complete_miss_slot(pid(2), buf(2)).unwrap();
        assert_eq!(s2, s1, "evicted frame's slot is recycled");
        assert_eq!(p.slot_page(s0), pid(0));
        assert_eq!(p.slot_buf(s0)[0], 0);
        p.release(pid(0), PagePriority::Normal).unwrap();
        p.release(pid(2), PagePriority::Normal).unwrap();
    }

    #[test]
    fn release_by_slot_is_release_by_id() {
        // Two pools through the same schedule, one releasing by id and
        // one by the slot its fix returned: same priority, pin count,
        // victim order and counters.
        let mut by_id = pool(3, ReplacementPolicy::PriorityLru);
        let mut by_slot = pool(3, ReplacementPolicy::PriorityLru);
        for (page, prio) in [
            (0, PagePriority::High),
            (1, PagePriority::Low),
            (0, PagePriority::Low),
            (2, PagePriority::Normal),
            (3, PagePriority::High),
            (0, PagePriority::Low),
        ] {
            visit(&mut by_id, pid(page), prio);
            let slot = match by_slot.fix_slot(pid(page)) {
                Some(slot) => slot,
                None => by_slot
                    .complete_miss_slot(pid(page), buf(page as u8))
                    .unwrap(),
            };
            by_slot.release_slot(pid(page), slot, prio).unwrap();
            assert_eq!(by_slot.next_victim(), by_id.next_victim());
        }
        assert_eq!(by_slot.resident_pages(), by_id.resident_pages());
        assert_eq!(
            format!("{:?}", by_slot.stats()),
            format!("{:?}", by_id.stats())
        );
        assert_eq!(by_id.stats().reprioritizations, 4);

        // A double pin needs two releases, by either route.
        let mut p = pool(2, ReplacementPolicy::Lru);
        let slot = p.complete_miss_slot(pid(0), buf(0)).unwrap();
        assert_eq!(p.fix_slot(pid(0)), Some(slot));
        p.release_slot(pid(0), slot, PagePriority::Normal).unwrap();
        assert_eq!(p.next_victim(), None);
        p.release(pid(0), PagePriority::Normal).unwrap();
        assert_eq!(p.next_victim(), Some(pid(0)));
        // The errors are release-by-id's: an unpinned page, a page that
        // is not resident (its old slot now free, or past the table).
        assert!(matches!(
            p.release_slot(pid(0), slot, PagePriority::Normal)
                .unwrap_err(),
            StorageError::PinViolation(_)
        ));
        p.discard(pid(0));
        for unfixed in [slot, 7] {
            assert!(matches!(
                p.release_slot(pid(0), unfixed, PagePriority::Normal)
                    .unwrap_err(),
                StorageError::NotResident(_)
            ));
        }
        // A slot that has changed tenant does not unpin the new one.
        let s1 = p.complete_miss_slot(pid(1), buf(1)).unwrap();
        assert_eq!(s1, slot, "the freed slot is reused");
        assert!(matches!(
            p.release_slot(pid(0), slot, PagePriority::Normal)
                .unwrap_err(),
            StorageError::NotResident(_)
        ));
        p.release_slot(pid(1), s1, PagePriority::Normal).unwrap();
    }

    #[test]
    fn out_of_order_releases_keep_lru_order_by_use() {
        // Fix three pages (recency 0 < 1 < 2), then release newest-first:
        // the victim order must still follow use recency, not release
        // order — the invariant the positioned list insertion maintains.
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::PriorityLru] {
            let mut p = pool(4, policy);
            for i in 0..3 {
                assert!(matches!(p.fix(pid(i)), FixOutcome::Miss));
                p.complete_miss(pid(i), buf(i as u8)).unwrap();
            }
            for i in (0..3).rev() {
                p.release(pid(i), PagePriority::Normal).unwrap();
            }
            assert_eq!(p.next_victim(), Some(pid(0)));
            visit(&mut p, pid(3), PagePriority::Normal);
            visit(&mut p, pid(4), PagePriority::Normal); // evict 0
            assert!(!p.contains(pid(0)));
            assert_eq!(p.next_victim(), Some(pid(1)));
        }
    }
}
