//! Scan operators: plain and sharing table scans, IXSCAN and SISCAN.
//!
//! A scan is two halves. A `Cursor` decides which extent comes next (a
//! 16-page run for table scans, one MDC block for index scans) and a
//! `Consumer` folds the rows of whatever pages it is handed into one
//! query's aggregate. `step_extent` is the one place they meet: gather
//! an extent, fetch and fix it once, add each page's subtotal — folded
//! once a run per distinct row pipeline — to every consumer of that
//! pipeline, charge every consumer its CPU share, make the paper's
//! per-extent manager call (location update in, throttle wait and
//! release priority out), release, advance, read ahead.
//!
//! A [`ScanExec`] is a cursor with exactly one consumer — the pull
//! delivery of the papers, which adds the other two manager calls:
//! register at start (with placement) and deregister at the end. A push
//! group driver ([`crate::push`]) is a cursor with a list of consumers,
//! and a late joiner's catch-up replay an unmanaged cursor feeding one
//! of them; both run the same step.
//!
//! A scan placed mid-range runs in two phases, exactly like the paper's
//! SISCAN (Figure 3): from the assigned start location to the end of the
//! range, then a wrap back to the original start key for the remainder.

use std::collections::VecDeque;
use std::ops::{Deref, Range};
use std::sync::Arc;

use scanshare::{Location, ObjectId, ScanDesc, ScanId, ScanKind};
use scanshare_relstore::{ColType, Entry, HeapPage, Rid, Schema};
use scanshare_storage::{
    BufferPool, FileId, PageBuf, PageId, PagePriority, SimDuration, SimTime, StorageError,
};

use crate::cost::{CpuClass, EngineConfig};
use crate::db::{Database, IndexEntries, PageRun, RidIndex};
use crate::error::{EngineError, EngineResult};
use crate::exec::ExecWorld;
use crate::query::{Access, AggSpec, Pred, QueryResult, ScanSpec};

/// An index plan's entries: a window on one shared copy of the index
/// in `(key, payload)` order, so neither a RID scan nor a catch-up lap
/// over what a scan has visited copies an entry.
#[derive(Debug, Clone)]
pub(crate) struct SharedEntries(IndexEntries, Range<usize>);

impl SharedEntries {
    /// The entries of `all` with `lo <= key <= hi`.
    fn key_range(all: &IndexEntries, lo: i64, hi: i64) -> SharedEntries {
        let start = all.partition_point(|e| e.key < lo);
        let end = all.partition_point(|e| e.key <= hi).max(start);
        SharedEntries(all.clone(), start..end)
    }

    /// The first `n` of these entries.
    fn prefix(&self, n: usize) -> SharedEntries {
        SharedEntries(self.0.clone(), self.1.start..self.1.start + n)
    }
}

impl Deref for SharedEntries {
    type Target = [Entry];

    fn deref(&self) -> &[Entry] {
        &self.0[self.1.clone()]
    }
}

/// What a [`Plan`] walks, one unit at a time: table pages, the blocks
/// of an MDC block index range, or the `(key, RID)` entries of a
/// secondary index.
#[derive(Debug)]
pub(crate) enum Walk {
    /// Every page of a table.
    Pages(u32),
    /// The `(cell key, BID)` entries of a block index range, one block
    /// of `block_pages` pages per step.
    Blocks {
        entries: SharedEntries,
        block_pages: u32,
    },
    /// The `(key, RID)` entries of a secondary index, fetching each
    /// row's page; one extent's worth of *distinct pages* per step, taken
    /// a run of same-page RIDs at a time (`runs` is the whole index's run
    /// table). The pages behind consecutive keys are scattered (§3.2), so
    /// this walk seeks heavily when cold.
    Rids {
        entries: SharedEntries,
        runs: Arc<[PageRun]>,
    },
}

impl Walk {
    /// A walk over the entries of `index` with `lo <= key <= hi`.
    fn rids(index: &RidIndex, lo: i64, hi: i64) -> Walk {
        Walk::Rids {
            entries: SharedEntries::key_range(&index.entries, lo, hi),
            runs: index.runs.clone(),
        }
    }

    /// Units in the range.
    fn len(&self) -> usize {
        match self {
            Walk::Pages(n) => *n as usize,
            Walk::Blocks { entries, .. } | Walk::Rids { entries, .. } => entries.len(),
        }
    }

    /// Pages one unit stands for (RID walks estimate one per entry).
    fn unit_pages(&self) -> u64 {
        match self {
            Walk::Blocks { block_pages, .. } => *block_pages as u64,
            Walk::Pages(_) | Walk::Rids { .. } => 1,
        }
    }

    /// Gather the step that starts at unit `pos` and takes at most
    /// `room` units: its pages into `ids` (and, for RID walks, the runs
    /// of same-page RIDs it takes into `runs`). Returns what to evaluate,
    /// the location to report afterwards and the units taken.
    fn cover(
        &self,
        pos: usize,
        room: usize,
        file: FileId,
        extent_pages: u32,
        ids: &mut Vec<PageId>,
        runs: &mut Vec<StepRun>,
    ) -> (StepWork<'_>, Location, usize) {
        let pages = |first: u32, n: u32| (first..first + n).map(move |p| PageId::new(file, p));
        match self {
            Walk::Pages(_) => {
                let taken = room.min(extent_pages as usize);
                ids.extend(pages(pos as u32, taken as u32));
                let last = (pos + taken - 1) as i64;
                (StepWork::AllRows, Location::new(last, last as u64), taken)
            }
            Walk::Blocks {
                entries,
                block_pages,
            } => {
                let e = entries[pos];
                ids.extend(pages(e.payload as u32 * block_pages, *block_pages));
                (StepWork::AllRows, Location::new(e.key, e.payload), 1)
            }
            Walk::Rids { entries, runs: all } => {
                // Consume whole runs of same-page RIDs, the last one cut
                // at the room left, until the step spans one extent's
                // worth of distinct pages: at most 32 × `extent_pages`
                // entries a step. Positions are in the whole index.
                let extent = extent_pages as usize;
                let first = entries.1.start + pos;
                let end = first + room.min(extent * 32);
                let mut next = all.partition_point(|run| run.end as usize <= first);
                let mut at = first;
                while at < end {
                    let run = all[next];
                    let pid = PageId::new(file, Rid::unpack(entries.0[at].payload).page);
                    let page = match ids.iter().position(|&id| id == pid) {
                        Some(page) => page,
                        None if ids.len() == extent => break,
                        None => {
                            ids.push(pid);
                            ids.len() - 1
                        }
                    };
                    at = end.min(run.end as usize);
                    runs.push(StepRun {
                        page: page as u32,
                        end: (at - first) as u32,
                        max_slot: run.max_slot,
                    });
                    next += 1;
                }
                let taken = at - first;
                let last = entries[pos + taken.saturating_sub(1)];
                let work = StepWork::Rids(&entries[pos..pos + taken]);
                (work, Location::new(last.key, last.payload), taken)
            }
        }
    }
}

/// Scan progress plan: where a [`Cursor`] is in its range, advanced one
/// step per [`Plan::gather`]/[`Plan::advance`] pair. The walk is the
/// paper's SISCAN ring: from unit `start` to the end of the range, then
/// from the range start back up to `start`.
#[derive(Debug)]
pub(crate) struct Plan {
    walk: Walk,
    /// The unit the walk started at.
    start: usize,
    /// Units processed so far.
    visited: usize,
}

impl Plan {
    /// A walk over `walk`'s whole range, from its start.
    pub(crate) fn new(walk: Walk) -> Plan {
        Plan {
            walk,
            start: 0,
            visited: 0,
        }
    }

    /// Whether the cursor has covered its whole range.
    pub(crate) fn done(&self) -> bool {
        self.visited >= self.walk.len()
    }

    /// Apply a placement decision: start at the joined location `loc`,
    /// backed up by `back_up_pages` (the joined scan's leftovers in the
    /// pool), instead of at the range start.
    fn start_at(&mut self, loc: Location, back_up_pages: u64) {
        let at = match &self.walk {
            Walk::Pages(n) => (loc.pos as usize).min((*n as usize).saturating_sub(1)),
            // Find the first exact joined entry; fall back to the first
            // entry at or after the joined key, then to the range start.
            Walk::Blocks { entries, .. } | Walk::Rids { entries, .. } => {
                let joined = Entry::new(loc.key, loc.pos);
                let exact = entries.partition_point(|e| *e < joined);
                match entries.get(exact) {
                    Some(e) if *e == joined => exact,
                    _ => match entries.partition_point(|e| e.key < loc.key) {
                        at if at < entries.len() => at,
                        _ => 0,
                    },
                }
            }
        };
        self.start = at.saturating_sub((back_up_pages / self.walk.unit_pages()) as usize);
    }

    /// Mark the whole range consumed, so `done()` holds: how a scan
    /// that died to a fault finishes early.
    fn finish(&mut self) {
        self.visited = self.walk.len();
    }

    /// The location of the range start — where a cursor that was placed
    /// mid-range is once its first phase ends and it wraps.
    fn range_start(&self) -> Location {
        match &self.walk {
            Walk::Pages(_) => Location::new(0, 0),
            Walk::Blocks { entries, .. } | Walk::Rids { entries, .. } => {
                Location::new(entries[0].key, entries[0].payload)
            }
        }
    }

    /// The next unit and how many the step may take: up to the end of
    /// the range (no step crosses the wrap) and no more than are left.
    fn next(&self) -> (usize, usize) {
        let len = self.walk.len();
        let pos = (self.start + self.visited) % len;
        (pos, (len - pos).min(len - self.visited))
    }

    /// Gather the next step's pages into `ids` (and, for RID walks, its
    /// runs of same-page RIDs into `runs`). Returns what to evaluate, the
    /// location to report afterwards, the units consumed, and whether the
    /// step ends the first phase (the cursor wraps after it).
    fn gather(
        &self,
        file: FileId,
        extent_pages: u32,
        ids: &mut Vec<PageId>,
        runs: &mut Vec<StepRun>,
    ) -> (StepWork<'_>, Location, u64, bool) {
        let (pos, room) = self.next();
        let (work, location, taken) = self.walk.cover(pos, room, file, extent_pages, ids, runs);
        let len = self.walk.len();
        let wraps = pos + taken == len && self.visited + taken < len;
        (work, location, taken as u64, wraps)
    }

    /// Consume the units a [`Plan::gather`] returned.
    fn advance(&mut self, units: u64) {
        self.visited += units as usize;
    }

    /// Total pages the whole range covers.
    pub(crate) fn total_pages(&self) -> u64 {
        self.walk.len() as u64 * self.walk.unit_pages()
    }

    /// Pages the cursor has covered so far.
    pub(crate) fn visited_pages(&self) -> u64 {
        self.visited as u64 * self.walk.unit_pages()
    }

    /// A fresh cursor over exactly the already-visited prefix, from the
    /// range start — the private catch-up lap a push consumer runs after
    /// joining a driver mid-range. Only meaningful for cursors that
    /// started at the range start (push drivers always do).
    pub(crate) fn prefix(&self) -> Plan {
        let n = self.visited;
        Plan::new(match &self.walk {
            Walk::Pages(_) => Walk::Pages(n as u32),
            Walk::Blocks {
                entries,
                block_pages,
            } => Walk::Blocks {
                entries: entries.prefix(n),
                block_pages: *block_pages,
            },
            Walk::Rids { entries, runs } => Walk::Rids {
                entries: entries.prefix(n),
                runs: runs.clone(),
            },
        })
    }

    /// The pages the *next* step will touch, appended to `out`, for
    /// prefetching. RID steps are not predicted: how many entries one
    /// takes depends on the pages behind them.
    fn peek_next_pages(&self, file: FileId, extent_pages: u32, out: &mut Vec<PageId>) {
        if self.done() || matches!(self.walk, Walk::Rids { .. }) {
            return;
        }
        let (pos, room) = self.next();
        self.walk
            .cover(pos, room, file, extent_pages, out, &mut Vec::new());
    }
}

/// What a step evaluates on its fetched pages.
#[derive(Clone, Copy)]
pub(crate) enum StepWork<'a> {
    /// Every row of every fetched page (table and block index scans).
    AllRows,
    /// Exactly the rows these RID index entries name, in order, run by
    /// run as the step scratch's `runs` has them.
    Rids(&'a [Entry]),
}

/// One run of same-page RIDs a step takes.
#[derive(Debug, Clone, Copy)]
struct StepRun {
    /// Where the run's page sits in the step's page ids.
    page: u32,
    /// Where the run ends in the step's entries.
    end: u32,
    /// The largest slot of the whole run the step took this one from:
    /// at least that of its own RIDs.
    max_slot: u16,
}

/// Each of `runs` with its entries of `step`, in order.
fn run_entries<'a>(
    runs: &'a [StepRun],
    step: &'a [Entry],
) -> impl Iterator<Item = (&'a StepRun, &'a [Entry])> + Clone {
    runs.iter().scan(0, move |from, run| {
        let end = run.end as usize;
        Some((run, &step[std::mem::replace(from, end)..end]))
    })
}

/// Reusable buffers for [`step_extent`]. Capacity survives between
/// steps, so the per-extent hot path performs no allocation in steady
/// state. The buffers are *lent* to each step, not owned by the cursor:
/// a [`ScanExec`] holds one, and the push engine holds one for all its
/// drivers and catch-up cursors (which never step concurrently), so a
/// run's hundreds of finished drivers keep no buffers alive.
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    /// The extent's page ids, in scan order.
    ids: Vec<PageId>,
    /// The runs of same-page RIDs a [`Walk::Rids`] step takes, in order.
    runs: Vec<StepRun>,
    /// A RID step's entries whose rows pass a predicate, and the runs
    /// they fall into, for one consumer.
    kept: Vec<Entry>,
    kept_runs: Vec<StepRun>,
    /// Each page of a RID step, in `ids` order: its pool frame, and
    /// where its rows lie in the frame when it is fixed-width (an empty
    /// range when not).
    frames: Vec<(u32, Range<usize>)>,
    /// Fetched `(page, pool slot)` pairs, sorted by page id.
    pages: Vec<(PageId, u32)>,
    /// Predicted next-extent pages handed to the prefetcher.
    prefetch: Vec<PageId>,
    /// Fault events drained from the world after each fetch.
    faults: Vec<crate::faults::FaultEvent>,
    /// The row kernel's selection vector: indexes of the rows of the
    /// region being folded that passed the predicate so far. Every
    /// consumer of a step selects into this one buffer in turn.
    sel: Vec<u32>,
    /// The rows of a page that is not fixed-width, copied side by side
    /// so the kernel sees a dense region.
    gathered: Vec<u8>,
    /// The subtotal of the page a whole-page step folds last: a state
    /// reset for each page.
    page: AggState,
}

/// One predicate leaf with its column byte offset resolved against the
/// scan's schema. [`RowPipeline::compile`] flattens a [`Pred`] tree into
/// a conjunction of these so the row kernel reads fields straight out of
/// the row bytes — no `Box` chasing, no per-access offset lookup.
#[derive(Debug, Clone, PartialEq)]
enum PredLeaf {
    /// `lo <= i32 at off <= hi`.
    I32Between { off: usize, lo: i32, hi: i32 },
    /// `f64 at off < x`.
    F64LessThan { off: usize, x: f64 },
    /// `byte at off == c`.
    CharEq { off: usize, c: u8 },
}

#[inline(always)]
fn f64_at(row: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(row[off..off + 8].try_into().unwrap())
}

/// Row `i` of a dense region of `width`-byte rows.
#[inline(always)]
fn row_at(region: &[u8], width: usize, i: u32) -> &[u8] {
    &region[i as usize * width..][..width]
}

/// The rows of a dense region of `width`-byte rows that `sel` names, in
/// its order.
fn selected<'a>(
    region: &'a [u8],
    width: usize,
    sel: &'a [u32],
) -> impl ExactSizeIterator<Item = &'a [u8]> + Clone {
    sel.iter().map(move |&i| row_at(region, width, i))
}

impl PredLeaf {
    /// Keep the rows of `sel` that pass this leaf, in order. Every
    /// candidate is written and the write cursor advances only past a
    /// survivor, so the loop has no data-dependent branch to mispredict
    /// (Q6's predicate passes 29 % of its rows). `row` reads a row by
    /// its index.
    fn filter<'a>(&self, row: impl Fn(u32) -> &'a [u8], sel: &mut Vec<u32>) {
        #[inline(always)]
        fn compact<'a>(
            row: impl Fn(u32) -> &'a [u8],
            sel: &mut Vec<u32>,
            pass: impl Fn(&[u8]) -> bool,
        ) {
            let mut kept = 0;
            for at in 0..sel.len() {
                let i = sel[at];
                sel[kept] = i;
                kept += pass(row(i)) as usize;
            }
            sel.truncate(kept);
        }
        // The leaf kind is matched once per page, not once per row.
        match *self {
            PredLeaf::I32Between { off, lo, hi } => compact(row, sel, |row| {
                let v = i32::from_le_bytes(row[off..off + 4].try_into().unwrap());
                lo <= v && v <= hi
            }),
            PredLeaf::F64LessThan { off, x } => compact(row, sel, |row| f64_at(row, off) < x),
            PredLeaf::CharEq { off, c } => compact(row, sel, |row| row[off] == c),
        }
    }
}

/// The scan's per-row work, compiled once at [`ScanExec::start`]: the
/// predicate flattened into [`PredLeaf`] conjuncts (left-to-right source
/// order; leaves are pure, so filtering leaf by leaf keeps exactly the
/// rows [`Pred::eval`]'s short-circuit does) and the aggregate's column
/// indexes resolved to byte offsets. The row kernel is the simulator's
/// inner loop, so it must not touch `Schema`. Consumers whose pipelines
/// are equal share the page subtotals a run's [`PageMemo`] keeps.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowPipeline {
    /// Conjunction of leaves; empty means every row qualifies.
    leaves: Vec<PredLeaf>,
    /// Byte offsets of the float columns in `AggSpec::sum_cols`, in order.
    sum_offs: Vec<usize>,
    /// Byte offsets of the `Char` columns in `AggSpec::group_by`, in order.
    group_offs: Vec<usize>,
    /// Bytes per row of the schema compiled against.
    width: usize,
}

impl RowPipeline {
    /// Resolve `pred` and `agg` against `schema`, the schema of `table`.
    /// Every column they name must exist, have the type its use reads
    /// and lie inside the row: the kernel checks none of that per row.
    pub(crate) fn compile(
        pred: &Pred,
        agg: &AggSpec,
        schema: &Schema,
        table: &str,
    ) -> EngineResult<RowPipeline> {
        let offset = |column: usize, expected: ColType| match schema.columns().get(column) {
            Some(c)
                if c.ty == expected
                    && schema.offset(column) + expected.width() <= schema.row_width() =>
            {
                Ok(schema.offset(column))
            }
            _ => Err(EngineError::BadColumn {
                table: table.to_string(),
                column,
                expected,
            }),
        };
        let offsets = |columns: &[usize], expected| -> EngineResult<Vec<usize>> {
            columns.iter().map(|&c| offset(c, expected)).collect()
        };
        let mut leaves = Vec::new();
        Self::flatten(pred, &offset, &mut leaves)?;
        // A group key holds one byte per column.
        if agg.group_by.len() > 8 {
            let (table, columns) = (table.to_string(), agg.group_by.len());
            return Err(EngineError::TooManyGroupColumns { table, columns });
        }
        Ok(RowPipeline {
            leaves,
            sum_offs: offsets(&agg.sum_cols, ColType::Float64)?,
            group_offs: offsets(&agg.group_by, ColType::Char)?,
            width: schema.row_width(),
        })
    }

    /// Flatten an `And` tree left-to-right; `True` is the conjunction
    /// identity and contributes no leaf. `offset` resolves a column of
    /// the given type to its byte offset.
    fn flatten(
        pred: &Pred,
        offset: &impl Fn(usize, ColType) -> EngineResult<usize>,
        out: &mut Vec<PredLeaf>,
    ) -> EngineResult<()> {
        match *pred {
            Pred::True => {}
            Pred::I32Between(col, lo, hi) => out.push(PredLeaf::I32Between {
                off: offset(col, ColType::Int32)?,
                lo,
                hi,
            }),
            Pred::F64LessThan(col, x) => out.push(PredLeaf::F64LessThan {
                off: offset(col, ColType::Float64)?,
                x,
            }),
            Pred::CharEq(col, c) => out.push(PredLeaf::CharEq {
                off: offset(col, ColType::Char)?,
                c,
            }),
            Pred::And(ref a, ref b) => {
                Self::flatten(a, offset, out)?;
                Self::flatten(b, offset, out)?;
            }
        }
        Ok(())
    }

    /// The row kernel over one dense `region` of rows. *Select*: each
    /// leaf in turn narrows the selection vector `sel` to the rows that
    /// pass it. *Fold*: the survivors, in row order, are added to `agg` —
    /// without a predicate, straight from the region.
    fn fold_region(&self, agg: &mut AggState, sel: &mut Vec<u32>, region: &[u8]) {
        let stride = self.stride();
        if self.leaves.is_empty() {
            return agg.fold(self, region.chunks_exact(stride));
        }
        self.select(sel, region);
        agg.fold(self, selected(region, stride, sel));
    }

    /// Narrow `sel` to the rows of `region` that pass every leaf.
    fn select(&self, sel: &mut Vec<u32>, region: &[u8]) {
        let stride = self.stride();
        sel.clear();
        sel.extend(0..(region.len() / stride) as u32);
        for leaf in &self.leaves {
            leaf.filter(move |i| row_at(region, stride, i), sel);
        }
    }

    /// Fold the rows of `frame`, a heap page of this pipeline's table,
    /// into `total`, reset first: its page subtotal. Returns the rows
    /// examined. A page that is not fixed-width has its rows copied into
    /// `gathered` first.
    fn fold_page(
        &self,
        total: &mut AggState,
        sel: &mut Vec<u32>,
        gathered: &mut Vec<u8>,
        frame: &[u8],
    ) -> EngineResult<u64> {
        let page = HeapPage::new(frame)?;
        let region = match page.dense_range(self.width) {
            Some(dense) => &frame[dense],
            None => {
                gathered.clear();
                for row in page.rows() {
                    self.copy_fields(gathered, row?)?;
                }
                &gathered[..]
            }
        };
        note_page_fold();
        total.reset(self.sum_offs.len());
        self.fold_region(total, sel, region);
        Ok(page.num_rows() as u64)
    }

    /// Bytes from one row of a dense region to the next: a zero-column
    /// row still takes a byte, so it still counts.
    fn stride(&self) -> usize {
        self.width.max(1)
    }
}

/// Aggregation state qualifying rows fold into. Kept apart from
/// [`RowPipeline`] so the compiled (immutable) pipeline and the mutable
/// state can be borrowed independently while row bytes borrowed from
/// the pool are live.
///
/// A whole-page step adds one *page subtotal* to it per page, in the
/// order the consumer visits pages: the page's selected rows folded, in
/// page order, into another `AggState`, reset for the page so that its
/// accumulators start at +0.0 ([`Subtotal`]). A RID step folds its rows
/// into it straight, in key order. Either
/// way every accumulator — the count, each sum, each group's count and
/// sums — receives the same addends in the same order whoever else rides
/// the same pages, and whether a subtotal was folded afresh or kept from
/// an earlier visit: `QueryResult`s are compared bit for bit across
/// commits, and f64 addition does not associate.
#[derive(Debug, Default)]
pub(crate) struct AggState {
    count: u64,
    sums: Vec<f64>,
    /// Packed group keys, in order of first appearance. Nothing is
    /// allocated for groups until a grouped row arrives: the push engine
    /// keeps every finished consumer's state until the run ends.
    keys: Vec<i64>,
    /// Rows per group, parallel to `keys`.
    counts: Vec<u64>,
    /// Sums per group: `sums.len()` consecutive values for each key.
    group_sums: Vec<f64>,
    /// Open-addressed index over `keys` (linear probing, a power of two
    /// long, at most a quarter full): a slot holds a group's position
    /// plus one, or 0 while free.
    slots: Vec<u32>,
}

/// Where the probe for `key` starts in a table of `mask + 1` slots: the
/// bits from `shift` up of its Fibonacci-hash product (packed chars
/// differ in a few low bits of each byte; the product spreads them).
#[inline(always)]
fn home_slot(key: i64, shift: u32, mask: usize) -> usize {
    ((key as u64).wrapping_mul(FIBONACCI) >> shift) as usize & mask
}

/// 2^64 over the golden ratio, odd.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The position in `keys` of `key`'s group, if it has one.
#[inline(always)]
fn find_group(slots: &[u32], keys: &[i64], key: i64) -> Option<usize> {
    let mask = slots.len().checked_sub(1)?;
    let mut at = home_slot(key, 32, mask);
    loop {
        match slots[at] as usize {
            0 => return None,
            g if keys[g - 1] == key => return Some(g - 1),
            _ => at = (at + 1) & mask,
        }
    }
}

impl AggState {
    pub(crate) fn new(n_sums: usize) -> AggState {
        AggState {
            sums: vec![0.0; n_sums],
            ..AggState::default()
        }
    }

    /// The aggregate answer accumulated so far.
    pub(crate) fn result(&self) -> QueryResult {
        let n = self.sums.len();
        let mut by_key: Vec<usize> = (0..self.keys.len()).collect();
        by_key.sort_unstable_by_key(|&g| self.keys[g]);
        let group = |g: usize| crate::query::GroupAgg {
            count: self.counts[g],
            sums: self.group_sums[g * n..][..n].to_vec(),
        };
        QueryResult {
            count: self.count,
            sums: self.sums.clone(),
            groups: by_key
                .into_iter()
                .map(|g| (self.keys[g], group(g)))
                .collect(),
        }
    }

    /// Forget every group and empty every accumulator, for a fold of
    /// `n_sums` sums from +0.0, keeping what is allocated.
    fn reset(&mut self, n_sums: usize) {
        self.count = 0;
        self.sums.clear();
        self.sums.resize(n_sums, 0.0);
        self.keys.clear();
        self.counts.clear();
        self.group_sums.clear();
        self.slots.clear();
    }

    /// Add a page subtotal: its count and sums to this state's, and each
    /// of its groups, in its order, to the same group here — started,
    /// empty, where this state has not met it.
    fn add_page(&mut self, t: Subtotal<'_>) {
        let n = t.sums.len();
        self.count += t.count;
        add(&mut self.sums, t.sums);
        for (g, &key) in t.keys.iter().enumerate() {
            let at =
                find_group(&self.slots, &self.keys, key).unwrap_or_else(|| self.add_group(key, n));
            self.counts[at] += t.counts[g];
            add(
                &mut self.group_sums[at * n..][..n],
                &t.group_sums[g * n..][..n],
            );
        }
    }

    /// Fold `rows` of `pipe`, in order. Without groups each sum takes its
    /// column in one pass, so its running total stays in a local. With
    /// groups the fold goes row by row: the row's key finds its group, or
    /// starts one, and each summed field is decoded once and added to the
    /// total and to the group.
    fn fold<'a>(
        &mut self,
        pipe: &RowPipeline,
        rows: impl ExactSizeIterator<Item = &'a [u8]> + Clone,
    ) {
        self.count += rows.len() as u64;
        if pipe.group_offs.is_empty() {
            for (sum, &off) in self.sums.iter_mut().zip(&pipe.sum_offs) {
                *sum = rows.clone().fold(*sum, |sum, row| sum + f64_at(row, off));
            }
            return;
        }
        let n = pipe.sum_offs.len();
        for row in rows {
            // One byte per group column, packed most significant first.
            let key = (pipe.group_offs.iter()).fold(0, |key, &off| (key << 8) | row[off] as i64);
            let g =
                find_group(&self.slots, &self.keys, key).unwrap_or_else(|| self.add_group(key, n));
            self.counts[g] += 1;
            let group = &mut self.group_sums[g * n..][..n];
            for ((total, sum), &off) in self.sums.iter_mut().zip(group).zip(&pipe.sum_offs) {
                let v = f64_at(row, off);
                *total += v;
                *sum += v;
            }
        }
    }

    /// This state as the subtotal of a page of which `rows` rows were
    /// examined.
    fn subtotal(&self, rows: u64) -> Subtotal<'_> {
        Subtotal {
            rows,
            count: self.count,
            sums: &self.sums,
            keys: &self.keys,
            counts: &self.counts,
            group_sums: &self.group_sums,
        }
    }

    /// Start an empty group for `key`; returns its position.
    #[cold]
    fn add_group(&mut self, key: i64, n_sums: usize) -> usize {
        let new = self.keys.len();
        self.keys.push(key);
        self.counts.push(0);
        self.group_sums.resize((new + 1) * n_sums, 0.0);
        // Index the new group — or, when that would fill the table past a
        // quarter, every group into a larger one.
        let mut unindexed = new..new + 1;
        if self.slots.len() < (new + 1) * 4 {
            self.slots.clear();
            self.slots
                .resize(((new + 1) * 8).next_power_of_two().max(64), 0);
            unindexed = 0..new + 1;
        }
        let mask = self.slots.len() - 1;
        for g in unindexed {
            let mut at = home_slot(self.keys[g], 32, mask);
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = g as u32 + 1;
        }
        new
    }
}

/// What one page adds to every consumer of a pipeline that visits it:
/// the page's selected rows folded, in page order, into accumulators
/// that start at +0.0 — a count, sums and a group table. Lent by the
/// step scratch's `page`, an [`AggState`] reset for each page, or by the
/// run's [`PageMemo`]. Every group it has met a row of the page.
#[derive(Debug, Clone, Copy)]
struct Subtotal<'a> {
    /// Rows of the page examined, selected or not.
    rows: u64,
    /// Rows selected.
    count: u64,
    sums: &'a [f64],
    /// The groups: keys, their rows, and `sums.len()` sums for each.
    keys: &'a [i64],
    counts: &'a [u64],
    group_sums: &'a [f64],
}

/// The page subtotals a run has folded, so that a pipeline visiting a
/// page again adds the subtotal it has instead of folding the page once
/// more: with many scans of one table nearly every visit is such a
/// repeat. A subtotal is found by (pipeline, page) — a pipeline's key is
/// its position among the distinct pipelines the run has met, which each
/// consumer looks up once — and holds the frame bytes it was folded
/// from. Only a visit whose frame holds those same bytes adds it; any
/// other folds the page again, so every answer still comes from the
/// bytes the pool delivered. The numbers lie back to back in arenas and
/// each pipeline finds a page's subtotal by its page number, so a
/// subtotal costs its numbers and 52 bytes beside them.
///
/// A run keeps one (`workload::run_inner`); a world built alone does
/// not, so its steps fold every page they fix.
#[derive(Debug, Default)]
pub(crate) struct PageMemo {
    /// The pipelines met so far, each with where its subtotals are.
    pipelines: Vec<(RowPipeline, PageIndex)>,
    kept: Vec<Kept>,
    /// Each subtotal's sums, then its groups'.
    sums: Arena<f64>,
    /// Each subtotal's group keys, and their rows: the two arenas take
    /// the same runs, so a subtotal's groups start at one place in both.
    keys: Arena<i64>,
    counts: Arena<u64>,
}

/// Where one pipeline's subtotals are in a [`PageMemo`]: per file, an
/// entry a page number — 0 for none, else the subtotal's position in
/// `kept` plus one.
type PageIndex = Vec<(FileId, Vec<u32>)>;

/// One subtotal of a [`PageMemo`]: the frame bytes it was folded from,
/// its two counts, and where its numbers start in the arenas.
#[derive(Debug)]
struct Kept {
    frame: PageBuf,
    rows: u32,
    count: u32,
    sums: (u32, u32),
    groups: (u32, u32),
    n_groups: u32,
}

/// Values kept back to back in blocks that never grow, so that keeping
/// more copies nothing and leaves no outgrown allocation behind.
#[derive(Debug)]
struct Arena<T>(Vec<Vec<T>>);

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena(Vec::new())
    }
}

/// The values a block of an [`Arena`] holds, unless one run needs more.
const BLOCK: usize = 8192;

impl<T: Copy> Arena<T> {
    /// Keep the `len` `values` side by side; returns where they start: a
    /// block, and a position in it.
    fn push(&mut self, len: usize, values: impl Iterator<Item = T>) -> (u32, u32) {
        if len == 0 {
            return (0, 0);
        }
        if self.0.last().is_none_or(|b| b.capacity() - b.len() < len) {
            self.0.push(Vec::with_capacity(len.max(BLOCK)));
        }
        let block = self.0.last_mut().expect("a block");
        let at = block.len();
        block.extend(values.take(len));
        let at32 = |v: usize| u32::try_from(v).expect("fewer than 2^32 blocks and values a block");
        (at32(self.0.len() - 1), at32(at))
    }

    /// The `len` values kept from `at`.
    fn get(&self, (block, at): (u32, u32), len: usize) -> &[T] {
        match len {
            0 => &[],
            _ => &self.0[block as usize][at as usize..][..len],
        }
    }
}

impl PageMemo {
    /// The key of `pipe`: its position among the pipelines met so far.
    fn intern(&mut self, pipe: &RowPipeline) -> u32 {
        let at = self.pipelines.iter().position(|(p, _)| p == pipe);
        let at = at.unwrap_or_else(|| {
            self.pipelines.push((pipe.clone(), Vec::new()));
            self.pipelines.len() - 1
        });
        u32::try_from(at).expect("fewer than 2^32 pipelines")
    }

    /// The subtotal, of `n` sums, kept for pipeline `pipe` over `page`,
    /// if it was folded from the bytes `frame` holds.
    fn get(&self, pipe: u32, page: PageId, frame: &[u8], n: usize) -> Option<Subtotal<'_>> {
        let files = &self.pipelines[pipe as usize].1;
        let (_, pages) = files.iter().find(|(file, _)| *file == page.file)?;
        let at = pages.get(page.page as usize)?.checked_sub(1)?;
        let k = &self.kept[at as usize];
        if k.frame.as_ptr() != frame.as_ptr() {
            return None;
        }
        let g = k.n_groups as usize;
        let (sums, group_sums) = self.sums.get(k.sums, n * (1 + g)).split_at(n);
        Some(Subtotal {
            rows: k.rows as u64,
            count: k.count as u64,
            sums,
            keys: self.keys.get(k.groups, g),
            counts: self.counts.get(k.groups, g),
            group_sums,
        })
    }

    /// Keep `t`, folded from `frame`'s bytes, for pipeline `pipe` over
    /// `page`, unless that pair has a subtotal already.
    fn keep(&mut self, pipe: u32, page: PageId, frame: &PageBuf, t: Subtotal<'_>) {
        let files = &mut self.pipelines[pipe as usize].1;
        let file = match files.iter().position(|(file, _)| *file == page.file) {
            Some(file) => file,
            None => {
                files.push((page.file, Vec::new()));
                files.len() - 1
            }
        };
        let pages = &mut files[file].1;
        let p = page.page as usize;
        if pages.len() <= p {
            pages.resize(p + 1, 0);
        }
        if pages[p] != 0 {
            return;
        }
        let (n, n_groups) = (t.sums.len(), t.keys.len());
        let sums = t.sums.iter().chain(t.group_sums).copied();
        let sums = self.sums.push(n * (1 + n_groups), sums);
        let keys = self.keys.push(n_groups, t.keys.iter().copied());
        self.counts.push(n_groups, t.counts.iter().copied());
        let at = |len: usize| u32::try_from(len).expect("fewer than 2^32 rows and subtotals");
        self.kept.push(Kept {
            frame: frame.clone(),
            rows: at(t.rows as usize),
            count: at(t.count as usize),
            sums,
            groups: keys,
            n_groups: at(n_groups),
        });
        pages[p] = at(self.kept.len());
    }
}

/// Add `vals` to running totals, one to one.
#[inline(always)]
fn add(totals: &mut [f64], vals: &[f64]) {
    for (a, v) in totals.iter_mut().zip(vals) {
        *a += v;
    }
}

/// Measurements a finished scan hands back to its query.
#[derive(Debug, Clone, Default)]
pub struct ScanMetrics {
    /// CPU time spent processing rows.
    pub cpu: SimDuration,
    /// Time blocked waiting for pages.
    pub io_wait: SimDuration,
    /// Throttle wait injected by the manager.
    pub throttle_wait: SimDuration,
    /// Buffer pool fixes.
    pub logical_reads: u64,
    /// Pages physically read on behalf of this scan.
    pub physical_reads: u64,
}

impl ScanMetrics {
    /// Add another scan's measurements to these (a query sums its scans).
    pub fn absorb(&mut self, other: &ScanMetrics) {
        self.cpu += other.cpu;
        self.io_wait += other.io_wait;
        self.throttle_wait += other.throttle_wait;
        self.logical_reads += other.logical_reads;
        self.physical_reads += other.physical_reads;
    }
}

/// The cursor half of a scan: which extent comes next.
#[derive(Debug)]
pub(crate) struct Cursor {
    file: FileId,
    pub(crate) plan: Plan,
    /// Ring of this cursor's recently released pages, when the scan is
    /// unshared and large: vanilla engines recycle sequential-scan
    /// buffers through a small ring instead of letting one scan flush
    /// the pool. `None` when sharing manages retention instead.
    ring: Option<(VecDeque<PageId>, usize)>,
}

impl Cursor {
    /// A ringless cursor over `plan`'s range of `file`.
    pub(crate) fn new(file: FileId, plan: Plan) -> Cursor {
        Cursor {
            file,
            plan,
            ring: None,
        }
    }
}

/// The consumer half of a scan: one query's row pipeline and aggregate,
/// fed the pages some [`Cursor`] fixed, plus what the run records about
/// it.
#[derive(Debug)]
pub(crate) struct Consumer {
    /// The manager id, while the scan is registered: `None` for an
    /// unshared scan, and again once the scan has ended or been evicted.
    pub(crate) scan: Option<ScanId>,
    /// Predicate + aggregate columns compiled against the table schema.
    pipeline: RowPipeline,
    /// The pipeline's key in the run's [`PageMemo`], once a whole-page
    /// step has looked it up.
    memo_key: Option<u32>,
    cpu: CpuClass,
    agg: AggState,
    pub(crate) metrics: ScanMetrics,
    /// When this consumer's share of the last delivered extent is
    /// processed; it cannot finish (or absorb another extent) earlier.
    pub(crate) ready_at: SimTime,
    /// The scan died to a fault: it is finished with a partial answer,
    /// and was evicted from sharing.
    pub(crate) aborted: bool,
}

impl Consumer {
    /// A consumer for `spec` over a table with `schema`, not registered
    /// with the manager yet, idle since `now`. Fails when `spec` names a
    /// column `schema` does not have as the type it is used as.
    pub(crate) fn new(spec: &ScanSpec, schema: &Schema, now: SimTime) -> EngineResult<Consumer> {
        Ok(Consumer {
            scan: None,
            pipeline: RowPipeline::compile(&spec.pred, &spec.agg, schema, &spec.table)?,
            memo_key: None,
            cpu: spec.cpu,
            agg: AggState::new(spec.agg.sum_cols.len()),
            metrics: ScanMetrics::default(),
            ready_at: now,
            aborted: false,
        })
    }

    /// The aggregate answer accumulated so far.
    pub(crate) fn result(&self) -> QueryResult {
        self.agg.result()
    }

    /// Deregister a consumer whose range is complete.
    pub(crate) fn end(&mut self, world: &ExecWorld<'_>, now: SimTime) {
        if let (Some(id), Some(mgr)) = (self.scan.take(), &world.mgr) {
            mgr.end_scan(id, now);
        }
    }
}

impl RowPipeline {
    /// Run the row kernel over one fetched extent for one consumer of
    /// this pipeline, whose state is `agg`. A whole-page step adds each
    /// page's subtotal to it, page by page: the one `memo` keeps under
    /// this pipeline's key where it has it, else the page folded afresh
    /// (and then kept). Row bytes are borrowed straight from the pinned
    /// pool frames and fields read at the pipeline's precompiled offsets.
    /// Returns the number of rows examined (the CPU-cost driver), whatever
    /// the number selected.
    fn fold_extent(
        &self,
        pool: &BufferPool,
        memo: Option<(&mut PageMemo, u32)>,
        work: StepWork,
        scratch: &mut StepScratch,
        agg: &mut AggState,
    ) -> EngineResult<u64> {
        match work {
            StepWork::AllRows => self.fold_pages(pool, memo, scratch, agg),
            StepWork::Rids(step) => self.fold_rids(pool, step, scratch, agg),
        }
    }

    /// [`RowPipeline::fold_extent`] for a whole-page step.
    fn fold_pages(
        &self,
        pool: &BufferPool,
        mut memo: Option<(&mut PageMemo, u32)>,
        scratch: &mut StepScratch,
        agg: &mut AggState,
    ) -> EngineResult<u64> {
        let StepScratch {
            pages,
            sel,
            gathered,
            page,
            ..
        } = scratch;
        let n = self.sum_offs.len();
        let mut seen = 0;
        for &(id, slot) in pages.iter() {
            let frame = pool.slot_buf(slot);
            let kept = memo
                .as_ref()
                .and_then(|(m, pipe)| m.get(*pipe, id, frame, n));
            let total = match kept {
                Some(total) => total,
                None => {
                    let rows = self.fold_page(page, sel, gathered, frame)?;
                    let total = page.subtotal(rows);
                    if let Some((m, pipe)) = &mut memo {
                        m.keep(*pipe, id, frame, total);
                    }
                    total
                }
            };
            agg.add_page(total);
            seen += total.rows;
        }
        Ok(seen)
    }

    /// [`RowPipeline::fold_extent`] for a RID step, whose `step` entries
    /// fall into the scratch's `runs`.
    fn fold_rids(
        &self,
        pool: &BufferPool,
        step: &[Entry],
        scratch: &mut StepScratch,
        agg: &mut AggState,
    ) -> EngineResult<u64> {
        let StepScratch {
            ids,
            pages,
            runs,
            kept,
            kept_runs,
            frames,
            sel,
            gathered,
            ..
        } = scratch;
        let width = self.width;
        // Exactly the indexed rows, in key order, in one pass, run by run:
        // where they lie when every run's page is fixed-width and holds the
        // run's largest slot. Each page of the step is resolved once
        // (`pages` is sorted by id).
        frames.clear();
        for id in ids.iter() {
            let at = pages.binary_search_by_key(id, |&(id, _)| id);
            let slot = pages[at.expect("page fetched")].1;
            let page = HeapPage::new(pool.slot_buf(slot)).ok();
            let rows = page.and_then(|p| p.dense_range(width));
            frames.push((slot, rows.unwrap_or(0..0)));
        }
        let frames = &frames[..];
        let page = |run: &StepRun| HeapPage::new(pool.slot_buf(frames[run.page as usize].0));
        let on_page = |run: &StepRun| {
            let region = &frames[run.page as usize].1;
            run.max_slot as usize * width < region.len()
        };
        let region = |run: &StepRun| {
            let (slot, region) = &frames[run.page as usize];
            &pool.slot_buf(*slot)[region.clone()]
        };
        let row = |region, e: &Entry| row_at(region, width, Rid::unpack(e.payload).slot as u32);
        if !runs.iter().all(on_page) {
            // An odd layout, or a slot its page may lack: the rows are read
            // through their pages' slot directories, which have the error,
            // and copied side by side before any is folded.
            gathered.clear();
            for (run, rids) in run_entries(runs, step) {
                let page = page(run)?;
                for e in rids {
                    let row = page.row_bytes(Rid::unpack(e.payload).slot)?;
                    self.copy_fields(gathered, row)?;
                }
            }
            self.fold_region(agg, sel, gathered);
            return Ok(step.len() as u64);
        }
        // With a predicate, the RIDs of each run whose rows pass it,
        // selected where the rows lie, stand in for the step's.
        let (rows, runs) = match self.leaves.is_empty() {
            true => (step, &runs[..]),
            false => {
                kept.clear();
                kept_runs.clear();
                for (run, rids) in run_entries(runs, step) {
                    let region = region(run);
                    sel.clear();
                    sel.extend(0..rids.len() as u32);
                    for leaf in &self.leaves {
                        leaf.filter(|i| row(region, &rids[i as usize]), sel);
                    }
                    kept.extend(sel.iter().map(|&i| rids[i as usize]));
                    let end = kept.len() as u32;
                    kept_runs.push(StepRun { end, ..*run });
                }
                (&kept[..], &kept_runs[..])
            }
        };
        for (run, rids) in run_entries(runs, rows) {
            let region = region(run);
            agg.fold(self, rids.iter().map(|e| row(region, e)));
        }
        Ok(step.len() as u64)
    }

    /// Copy the fields of `row`, a record of this pipeline's table, to
    /// the end of `gathered`, padded to the stride; a record shorter than
    /// the schema is `Corrupt`.
    fn copy_fields(&self, gathered: &mut Vec<u8>, row: &[u8]) -> Result<(), StorageError> {
        let width = self.width;
        let fields = row.get(..width).ok_or_else(|| {
            StorageError::Corrupt(format!("{}-byte record, schema has {width}", row.len()))
        })?;
        gathered.extend_from_slice(fields);
        gathered.resize(gathered.len() + self.stride() - width, 0);
        Ok(())
    }
}

/// How one [`step_extent`] ended.
pub(crate) enum Step {
    /// Every consumer absorbed the extent.
    Delivered {
        /// When the cursor may take its next step: the owner's CPU share
        /// done, plus its throttle wait.
        next: SimTime,
        /// Pages fixed (once, whatever the number of consumers).
        pages: u64,
        /// The step ended the cursor's first phase: it wraps next.
        wraps: bool,
    },
    /// The extent read died for good (a permanent fault, or a transient
    /// one that outlasted its retries). The owner was evicted — under
    /// this manager id, if it was registered — and marked aborted; the
    /// cursor did not move.
    Faulted(Option<ScanId>),
}

/// Advance `cursor` by one extent and deliver it to `consumers[i]` for
/// each `i` of `order`. The head of `order` is the *owner*: its event
/// drives the step, so it is charged the I/O wait and the pool fixes,
/// faults are attributed to it, and it is the one evicted if the read
/// dies. Every consumer pays its own CPU share.
///
/// `managed` says the cursor is where the manager believes its consumers
/// to be. Each registered consumer then reports the new location — in
/// lockstep, so groups, roles and provenance stay meaningful — but only
/// the owner's returned wait, release priority and role are applied:
/// throttling throttles the cursor. A catch-up replay is unmanaged: its
/// consumer's registered location is its driver's, and a second moving
/// location would corrupt that lockstep. An unmanaged cursor does not
/// read ahead either.
pub(crate) fn step_extent(
    world: &mut ExecWorld<'_>,
    now: SimTime,
    cursor: &mut Cursor,
    scratch: &mut StepScratch,
    consumers: &mut [Consumer],
    order: &[usize],
    managed: bool,
) -> EngineResult<Step> {
    let owner = order[0];
    scratch.ids.clear();
    scratch.runs.clear();
    let (work, location, units, wraps) = cursor.plan.gather(
        cursor.file,
        world.cfg.extent_pages,
        &mut scratch.ids,
        &mut scratch.runs,
    );

    // I/O, once for all consumers.
    let fetch_span = (world.profiler.as_ref())
        .map(|p| p.begin_child("extent.fetch", now))
        .unwrap_or_else(scanshare::SpanId::none);
    let fetched = world.fetch_extent(now, &scratch.ids, &mut scratch.pages);
    // Attribute the fault events the world observed during this I/O
    // (including transient faults a retry absorbed) to the owner in the
    // manager's decision log.
    scratch.faults.clear();
    world.take_fault_events(&mut scratch.faults);
    if let (Some(id), Some(mgr)) = (consumers[owner].scan, &world.mgr) {
        for e in &scratch.faults {
            mgr.note_fault(id, now, e.device, e.addr, e.transient, e.attempt);
        }
    }
    let fetch = match fetched {
        Ok(f) => f,
        // Graceful degradation: under a fault plan the fetch can fail
        // for good. That costs the owner its scan, not the run: evict it
        // from sharing (its group re-forms and any throttle it justified
        // is lifted) and count the abort; what becomes of the cursor is
        // the caller's call.
        Err(StorageError::ReadFault {
            device,
            addr,
            transient,
        }) => {
            if let Some(p) = &world.profiler {
                p.attr(fetch_span, "error", "read_fault");
                p.attr(fetch_span, "device", device.to_string());
                p.end(fetch_span, now);
            }
            let kind = if transient {
                "exhausted retries on a transient"
            } else {
                "permanent"
            };
            let reason = format!("{kind} read fault on device {device} at page {addr}");
            let victim = &mut consumers[owner];
            // The fetch fixed every page of the extent before the read
            // died; they are the owner's fixes all the same.
            victim.metrics.logical_reads += scratch.ids.len() as u64;
            let evicted = victim.scan.take();
            if let (Some(id), Some(mgr)) = (evicted, &world.mgr) {
                mgr.evict_scan(id, now, &reason);
            }
            victim.aborted = true;
            world.note_scan_aborted();
            return Ok(Step::Faulted(evicted));
        }
        Err(e) => return Err(e.into()),
    };
    if let Some(p) = &world.profiler {
        p.attr(fetch_span, "hits", fetch.hits.to_string());
        p.attr(fetch_span, "misses", fetch.misses.to_string());
        p.attr(fetch_span, "requests", fetch.requests.to_string());
        p.end(fetch_span, fetch.ready);
    }
    let pages = scratch.ids.len() as u64;
    let o = &mut consumers[owner];
    o.metrics.io_wait += fetch.ready.since(now);
    o.metrics.logical_reads += pages;
    o.metrics.physical_reads += fetch.misses;

    // CPU: each consumer's pipeline runs over the fixed pages before
    // release, consumer by consumer — the run's memo keeps whole-page
    // subtotals by pipeline, so riders of one pipeline fold a page once —
    // and then each consumer is charged its own share, owner first. One
    // span covers them all and closes at the owner's completion (the
    // step's track is the owner's stream).
    let cpu_span = (world.profiler.as_ref())
        .map(|p| p.begin_child("cpu.process", fetch.ready))
        .unwrap_or_else(scanshare::SpanId::none);
    // Rows examined: the same for every consumer, they walk the same pages.
    let mut seen = 0u64;
    for &ci in order {
        let c = &mut consumers[ci];
        let memo = match (&mut world.memo, work) {
            (Some(memo), StepWork::AllRows) => {
                let key = c.memo_key.get_or_insert_with(|| memo.intern(&c.pipeline));
                Some((memo, *key))
            }
            _ => None,
        };
        seen = (c.pipeline).fold_extent(&world.pool, memo, work, scratch, &mut c.agg)?;
    }
    let mut rows = 0u64;
    for &ci in order {
        let c = &mut consumers[ci];
        let cost = c.cpu.extent_cost(pages, seen);
        c.ready_at = world.run_cpu(fetch.ready, cost);
        c.metrics.cpu += cost;
        rows += seen;
    }
    let done = consumers[owner].ready_at;
    if let Some(p) = &world.profiler {
        p.attr(cpu_span, "rows", rows.to_string());
        p.end(cpu_span, done);
    }

    // Sharing-manager update: throttle wait + release priority.
    let mut wait = SimDuration::ZERO;
    let mut priority = PagePriority::Normal;
    let mut grouped = false;
    if let (true, Some(mgr)) = (managed, &world.mgr) {
        // The location moved by the pages the step fetched.
        for &ci in order {
            let c = &mut consumers[ci];
            let Some(id) = c.scan else { continue };
            let out = mgr.update_location(id, c.ready_at, location, pages);
            // Riders only report; the owner's outcome is the cursor's.
            if ci != owner {
                continue;
            }
            wait = out.wait;
            priority = out.priority;
            grouped = out.role != scanshare::Role::Singleton;
            c.metrics.throttle_wait += wait;
            if wait > SimDuration::ZERO {
                if let Some(p) = &world.profiler {
                    let role = scanshare::decision::role_name(out.role);
                    let s = p.begin_child("throttle.wait", done);
                    p.attr(s, "wait_us", wait.as_micros().to_string());
                    p.attr(s, "role", role.to_string());
                    p.end(s, done + wait);
                }
                world.throttle_hist.record(wait.as_micros());
            }
        }
    }
    world.release_pages(&scratch.pages, priority)?;
    // The ring discards before the read-ahead below, which evicts: the
    // other order would change its victims.
    if let Some((ring, cap)) = &mut cursor.ring {
        if grouped {
            // Retention belongs to the manager now; forget the ring
            // so the group's pages stay pool-managed.
            ring.clear();
        } else {
            for &(id, _) in &scratch.pages {
                ring.push_back(id);
            }
            while ring.len() > *cap {
                let old = ring.pop_front().expect("nonempty");
                world.pool.discard(old);
            }
        }
    }

    // Advance.
    cursor.plan.advance(units);
    if managed && world.cfg.prefetch_extents > 0 && !cursor.plan.done() {
        scratch.prefetch.clear();
        cursor
            .plan
            .peek_next_pages(cursor.file, world.cfg.extent_pages, &mut scratch.prefetch);
        if !scratch.prefetch.is_empty() {
            world.prefetch(fetch.ready, &scratch.prefetch)?;
        }
    }
    Ok(Step::Delivered {
        next: done + wait,
        pages,
        wraps,
    })
}

/// One executing pull scan: a cursor with exactly one consumer.
#[derive(Debug)]
pub struct ScanExec {
    cursor: Cursor,
    consumer: Consumer,
    /// Pending wrap notification (phase 1 just ended).
    needs_wrap: bool,
    /// Reusable step buffers.
    scratch: StepScratch,
}

/// A planned-but-unstarted scan: the access path resolved into a
/// [`Plan`] plus the manager registration record. Shared by the pull
/// executor ([`ScanExec::start`]) and the push engine's group drivers,
/// so the two delivery modes plan identically.
pub(crate) struct PlannedScan {
    pub(crate) file: FileId,
    pub(crate) schema: Schema,
    pub(crate) plan: Plan,
    pub(crate) desc: ScanDesc,
}

/// Whether `spec` registers with the sharing manager at all. Scope
/// toggles let experiments run table-scan sharing alone (ICDE scope) or
/// with the index-scan extension (VLDB scope); a scan that must deliver
/// its rows in order can not be placed mid-range.
pub(crate) fn shareable(cfg: &EngineConfig, spec: &ScanSpec, kind: ScanKind) -> bool {
    !spec.require_order
        && match kind {
            ScanKind::Table => cfg.share_table_scans,
            ScanKind::Index => cfg.share_index_scans,
        }
}

/// Resolve a [`ScanSpec`] against the database: pick the access path,
/// materialize the cursor skeleton (at the range start), and build the
/// [`ScanDesc`] a sharing manager registers.
pub(crate) fn plan_scan(
    db: &Database,
    world: &ExecWorld<'_>,
    spec: &ScanSpec,
) -> EngineResult<PlannedScan> {
    let table = db
        .table(&spec.table)
        .ok_or_else(|| EngineError::UnknownTable(spec.table.clone()))?;
    let file = table.file();
    let schema = table.schema().clone();
    let rows_per_page = if table.num_pages() == 0 {
        0
    } else {
        table.num_rows() / table.num_pages() as u64
    };

    // Each access path's walk, the manager's kind and key range for it,
    // its page estimate and the rows the estimate costs per page.
    let (walk, kind, (start_key, end_key), est_pages, est_rows_per_page) = match &spec.access {
        Access::FullTable => {
            let num_pages = table.num_pages();
            let keys = (0, num_pages.saturating_sub(1) as i64);
            let walk = Walk::Pages(num_pages);
            (walk, ScanKind::Table, keys, num_pages as u64, rows_per_page)
        }
        Access::RidRange { lo, hi } => {
            let index = db
                .rid_index(&spec.table)
                .ok_or_else(|| EngineError::NoRidIndex(spec.table.clone()))?;
            let walk = Walk::rids(index, *lo, *hi);
            // Low-selectivity RID fetches touch roughly one distinct
            // page per entry, capped by the table size.
            let est_pages = (walk.len() as u64).min(table.num_pages() as u64);
            (walk, ScanKind::Index, (*lo, *hi), est_pages, 1)
        }
        Access::IndexRange { lo, hi } => {
            let mdc = table
                .as_mdc()
                .ok_or_else(|| EngineError::NotClustered(spec.table.clone()))?;
            let blocks = mdc.blocks_for_range(db.store(), *lo, *hi)?;
            let entries = SharedEntries::key_range(&blocks.into(), *lo, *hi);
            let est_pages = entries.len() as u64 * mdc.block_pages as u64;
            let block_pages = mdc.block_pages;
            let walk = Walk::Blocks {
                entries,
                block_pages,
            };
            (walk, ScanKind::Index, (*lo, *hi), est_pages, rows_per_page)
        }
    };
    let desc = ScanDesc {
        kind,
        object: ObjectId(file.0 as u64),
        start_key,
        end_key,
        est_pages,
        est_time: ScanExec::estimate_time(world, spec, est_pages, est_rows_per_page),
        priority: spec.query_priority,
    };
    Ok(PlannedScan {
        file,
        schema,
        plan: Plan::new(walk),
        desc,
    })
}

impl ScanExec {
    /// Plan and register a scan at time `now`. When `world.mgr` is set,
    /// this is where placement happens: the manager may start the scan
    /// in the middle of its range.
    pub fn start(
        db: &Database,
        world: &mut ExecWorld<'_>,
        spec: &ScanSpec,
        now: SimTime,
    ) -> EngineResult<ScanExec> {
        let PlannedScan {
            file,
            schema,
            mut plan,
            desc,
        } = plan_scan(db, world, spec)?;
        // Before the manager hears of the scan: a spec that does not fit
        // the table must not leave a registration behind.
        let mut consumer = Consumer::new(spec, &schema, now)?;

        // Placement: ask the manager where to start.
        let kind_shared = shareable(&world.cfg, spec, desc.kind);
        let est_pages = desc.est_pages;
        if let (Some(mgr), true) = (&world.mgr, kind_shared) {
            let (id, decision) = mgr.start_scan(desc, now);
            consumer.scan = Some(id);
            if let scanshare::StartDecision::JoinAt {
                location,
                back_up_pages,
                ..
            } = decision
            {
                plan.start_at(location, back_up_pages);
            }
        }

        // Large scans recycle their buffers through a bounded ring, like
        // vanilla engines. Shared scans keep the ring too, but with a
        // pool-sized cap and only while *ungrouped* (singletons): the
        // manager wants a finished scan's trail retained (last-finished
        // placement), yet an ungrouped giant must not flush everything
        // hotter than it. Once grouped, retention is the manager's job
        // (leader/trailer priorities) and the ring is dropped.
        let ring_pages = if world.mgr.is_some() && kind_shared {
            (world.pool.capacity() / 2).max(world.cfg.seq_ring_pages as usize)
        } else {
            world.cfg.seq_ring_pages as usize
        };
        let large = est_pages as usize > world.pool.capacity() / 4;
        let ring = (ring_pages > 0 && world.cfg.seq_ring_pages > 0 && large)
            .then(|| (VecDeque::new(), ring_pages));

        Ok(ScanExec {
            cursor: Cursor { file, plan, ring },
            consumer,
            needs_wrap: false,
            scratch: StepScratch::default(),
        })
    }

    /// The cost-model scan-time estimate (the "costing component of the
    /// query compiler"): assume a cold run — one seek per extent plus
    /// transfer, system and CPU time.
    fn estimate_time(
        world: &ExecWorld<'_>,
        spec: &ScanSpec,
        est_pages: u64,
        rows_per_page: u64,
    ) -> SimDuration {
        let extent = world.cfg.extent_pages as u64;
        if est_pages == 0 {
            return SimDuration::from_micros(1);
        }
        let extents = est_pages.div_ceil(extent);
        let per_extent = world.cfg.disk.seek
            + world.cfg.disk.transfer_per_page.times(extent)
            + world.cfg.sys_per_request
            + spec.cpu.extent_cost(extent, rows_per_page * extent);
        SimDuration::from_micros(per_extent.as_micros() * extents)
    }

    /// Whether the scan has processed its whole range.
    pub fn finished(&self) -> bool {
        self.cursor.plan.done()
    }

    /// The scan's answer (valid once finished).
    pub fn result(&self) -> QueryResult {
        self.consumer.result()
    }

    /// What the scan cost so far.
    pub fn metrics(&self) -> &ScanMetrics {
        &self.consumer.metrics
    }

    /// The manager id of this scan, if shared.
    pub fn scan_id(&self) -> Option<ScanId> {
        self.consumer.scan
    }

    /// Advance by one extent. Returns the time at which the scan may take
    /// its next step, or `None` once it has finished (the manager is
    /// deregistered at that point).
    pub fn step(
        &mut self,
        world: &mut ExecWorld<'_>,
        now: SimTime,
    ) -> EngineResult<Option<SimTime>> {
        if self.finished() {
            self.consumer.end(world, now);
            return Ok(None);
        }
        // A pending wrap from the previous step is reported before new
        // work: the scan is now at the start of its second phase.
        if self.needs_wrap {
            if let (Some(id), Some(mgr)) = (self.consumer.scan, &world.mgr) {
                mgr.wrap_scan(id, now, self.cursor.plan.range_start());
            }
            self.needs_wrap = false;
        }
        let consumer = std::slice::from_mut(&mut self.consumer);
        let stepped = step_extent(
            world,
            now,
            &mut self.cursor,
            &mut self.scratch,
            consumer,
            &[0],
            true,
        )?;
        match stepped {
            Step::Delivered { next, wraps, .. } => {
                self.needs_wrap = wraps;
                Ok(Some(next))
            }
            // The scan finishes early with its partial answer; the run
            // keeps going.
            Step::Faulted(_) => {
                self.cursor.plan.finish();
                Ok(None)
            }
        }
    }
}

/// Tests count the pages the kernel folds.
#[cfg(not(test))]
fn note_page_fold() {}

#[cfg(test)]
fn note_page_fold() {
    PAGE_FOLDS.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
thread_local! {
    static PAGE_FOLDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many pages this thread's steps have folded so far, subtotals the
/// memo had not counted.
#[cfg(test)]
pub(crate) fn page_folds() -> u64 {
    PAGE_FOLDS.with(|n| n.get())
}

#[cfg(test)]
impl Walk {
    /// A RID walk over all of `entries`, with the run table a database
    /// builds for its index.
    fn all_rids(entries: Vec<Entry>) -> Walk {
        Walk::rids(&entries.into(), i64::MIN, i64::MAX)
    }
}

/// A step's runs as the per-entry work list they stand for: each RID's
/// page as its position in the step's page ids, and its slot.
#[cfg(test)]
fn per_entry(work: StepWork, runs: &[StepRun]) -> Vec<(u32, u16)> {
    let StepWork::Rids(step) = work else {
        return Vec::new();
    };
    assert_eq!(runs.last().map_or(0, |run| run.end as usize), step.len());
    (run_entries(runs, step))
        .flat_map(|(run, rids)| rids.iter().map(|e| (run.page, Rid::unpack(e.payload).slot)))
        .collect()
}

#[cfg(test)]
impl From<Vec<Entry>> for SharedEntries {
    /// All of `entries`, as their own shared copy.
    fn from(entries: Vec<Entry>) -> SharedEntries {
        let n = entries.len();
        SharedEntries(entries.into(), 0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EngineConfig;
    use scanshare_relstore::{Column, Value};
    use scanshare_storage::{BufferPool, PoolConfig, ReplacementPolicy};

    fn small_db() -> Database {
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("amount", ColType::Float64),
        ]);
        // Heap table: 4000 rows.
        db.create_heap_table(
            "orders",
            schema.clone(),
            (0..4000).map(|i| vec![Value::I32(i % 12), Value::F64(1.0)]),
        )
        .unwrap();
        // Heap table with a RID index on the month column; insertion
        // order scatters each month across every page.
        db.create_heap_table_with_index(
            "events",
            schema.clone(),
            0,
            (0..20_000).map(|i| vec![Value::I32(i % 10), Value::F64(3.0)]),
        )
        .unwrap();
        // MDC table clustered by month, interleaved inserts.
        db.create_mdc_table(
            "lineitem",
            schema,
            4,
            (0..20_000).map(|i| ((i % 6) as i64, vec![Value::I32(i % 6), Value::F64(2.0)])),
        )
        .unwrap();
        db
    }

    fn world(db: &Database) -> ExecWorld<'_> {
        let pool = BufferPool::new(PoolConfig::new(256, ReplacementPolicy::Lru));
        ExecWorld::new(db.store(), pool, EngineConfig::default(), None)
    }

    fn run_to_end(
        db: &Database,
        world: &mut ExecWorld<'_>,
        spec: &ScanSpec,
    ) -> (QueryResult, ScanMetrics) {
        run_from(db, world, spec, SimTime::ZERO)
    }

    fn run_from(
        db: &Database,
        world: &mut ExecWorld<'_>,
        spec: &ScanSpec,
        start: SimTime,
    ) -> (QueryResult, ScanMetrics) {
        let mut scan = ScanExec::start(db, world, spec, start).unwrap();
        let mut t = start;
        while let Some(next) = scan.step(world, t).unwrap() {
            t = next;
        }
        (scan.result(), scan.metrics().clone())
    }

    fn table_spec(pred: Pred) -> ScanSpec {
        ScanSpec {
            table: "orders".into(),
            access: Access::FullTable,
            pred,
            agg: AggSpec::sums(vec![1]),
            cpu: CpuClass::io_bound(),
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        }
    }

    fn index_spec(lo: i64, hi: i64) -> ScanSpec {
        ScanSpec {
            table: "lineitem".into(),
            access: Access::IndexRange { lo, hi },
            pred: Pred::True,
            agg: AggSpec::sums(vec![1]),
            cpu: CpuClass::io_bound(),
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        }
    }

    fn rid_spec(lo: i64, hi: i64) -> ScanSpec {
        ScanSpec {
            table: "events".into(),
            access: Access::RidRange { lo, hi },
            pred: Pred::True,
            agg: AggSpec::sums(vec![1]),
            cpu: CpuClass::io_bound(),
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        }
    }

    /// The RID gather as first written — an index modulo the entry count
    /// per entry and a linear `contains` per RID — kept as the reference
    /// the slice walk is held to.
    fn rid_gather_by_modulo(
        entries: &[Entry],
        start_idx: usize,
        visited: usize,
        file: FileId,
        extent_pages: u32,
        ids: &mut Vec<PageId>,
        rids: &mut Vec<(u32, u16)>,
    ) -> (u64, Location, u64, bool) {
        let len = entries.len();
        let extent = extent_pages as usize;
        let max_entries = extent * 32;
        let mut taken = 0usize;
        let mut last = entries[(start_idx + visited) % len];
        while visited + taken < len && taken < max_entries {
            let e = entries[(start_idx + visited + taken) % len];
            let rid = Rid::unpack(e.payload);
            let pid = PageId::new(file, rid.page);
            if !ids.contains(&pid) {
                if ids.len() == extent {
                    break;
                }
                ids.push(pid);
            }
            let at = ids.iter().position(|&id| id == pid).expect("gathered");
            rids.push((at as u32, rid.slot));
            last = e;
            taken += 1;
            if (start_idx + visited + taken).is_multiple_of(len) {
                break;
            }
        }
        let after = visited + taken;
        let wraps = (start_idx + after).is_multiple_of(len) && after < len;
        (
            ids.len() as u64,
            Location::new(last.key, last.payload),
            taken as u64,
            wraps,
        )
    }

    /// One step of a RID walk over `window` of `index`, placed at unit
    /// `start` with `visited` units done, gathered by the walk and by the
    /// per-entry reference, which must agree. Returns the step's first
    /// position in the index, its units, its room and whether it wraps.
    fn gather_both_ways(
        index: &RidIndex,
        window: Range<usize>,
        extent_pages: u32,
        start: usize,
        visited: usize,
    ) -> (usize, usize, usize, bool) {
        let file = FileId(3);
        let walk = Walk::Rids {
            entries: SharedEntries(index.entries.clone(), window.clone()),
            runs: index.runs.clone(),
        };
        let plan = Plan {
            start,
            visited,
            ..Plan::new(walk)
        };
        let (mut ids, mut runs) = (Vec::new(), Vec::new());
        let (mut want_ids, mut want_rids) = (Vec::new(), Vec::new());
        let (work, location, units, wraps) = plan.gather(file, extent_pages, &mut ids, &mut runs);
        assert!(
            matches!(work, StepWork::Rids(_)),
            "a RID plan gathers RID work"
        );
        let want = rid_gather_by_modulo(
            &index.entries[window.clone()],
            start,
            visited,
            file,
            extent_pages,
            &mut want_ids,
            &mut want_rids,
        );
        let at = format!("window {window:?} extent {extent_pages} start {start} visited {visited}");
        assert_eq!((ids.len() as u64, location, units, wraps), want, "{at}");
        assert_eq!(ids, want_ids, "{at}");
        assert_eq!(per_entry(work, &runs), want_rids, "{at}");
        let (pos, room) = plan.next();
        (window.start + pos, units as usize, room, wraps)
    }

    #[test]
    fn rid_gather_walks_the_same_chunks_as_the_per_entry_modulo_loop() {
        // 300 entries over 40 pages: runs of one to five RIDs on a page
        // (a duplicate RID now and then), and pages that come back later
        // in key order — inside one chunk and chunks apart.
        let mut rng = scanshare_prng::Rng::seed_from_u64(0x51D);
        let mut entries: Vec<Entry> = Vec::new();
        while entries.len() < 300 {
            let page = match rng.next_u64() % 4 {
                0 => rng.next_u64() % 4,
                _ => rng.next_u64() % 40,
            } as u32;
            for _ in 0..1 + rng.next_u64() % 5 {
                let rid = match entries.last() {
                    Some(prev) if rng.next_u64().is_multiple_of(8) => Rid::unpack(prev.payload),
                    _ => Rid::new(page, (rng.next_u64() % 50) as u16),
                };
                entries.push(Entry::new(entries.len() as i64 / 3, rid.pack()));
            }
        }
        entries.truncate(300);
        let short = RidIndex::from(entries);
        let mut chunks_cut_by_the_wrap = 0;
        for extent_pages in [1, 4, 16] {
            for start in 0..300 {
                for visited in 0..300 {
                    let (.., wraps) =
                        gather_both_ways(&short, 0..300, extent_pages, start, visited);
                    chunks_cut_by_the_wrap += wraps as usize;
                }
            }
        }
        assert!(chunks_cut_by_the_wrap > 300, "the wrap was hardly reached");

        // Runs of up to 1 200 RIDs, longer than the 512 entries a step of
        // 16 pages may take, beside short ones; windows on the index and
        // steps that begin and end inside a run.
        let mut entries: Vec<Entry> = Vec::new();
        while entries.len() < 6_000 {
            let page = (rng.next_u64() % 40) as u32;
            let len = match rng.next_u64() % 5 {
                0 | 1 => 1 + rng.next_u64() % 5,
                2 | 3 => 20 + rng.next_u64() % 80,
                _ => 513 + rng.next_u64() % 700,
            };
            for _ in 0..len {
                let rid = Rid::new(page, (rng.next_u64() % 50) as u16);
                entries.push(Entry::new(entries.len() as i64 / 3, rid.pack()));
            }
        }
        let long = RidIndex::from(entries);
        let n = long.entries.len();
        let page = |at: usize| Rid::unpack(long.entries[at].payload).page;
        // Whether positions `at` and `at + 1` of the index are in one run.
        let run_goes_on = |at: usize| at + 1 < n && page(at) == page(at + 1);
        #[derive(Debug, Default)]
        struct Reached {
            windows_from_mid_run: u32,
            windows_to_mid_run: u32,
            steps_from_mid_run: u32,
            runs_cut_by_the_room_cap: u32,
            steps_of_512_from_one_run: u32,
            runs_cut_by_the_wrap: u32,
        }
        let mut reached = Reached::default();
        let windows = (0..7).map(|w| match w {
            0 => 0..n,
            _ => {
                let lo = rng.bounded_u64(n as u64 / 2) as usize;
                lo..n / 2 + rng.bounded_u64(n as u64 / 2) as usize
            }
        });
        for window in windows.collect::<Vec<_>>() {
            let len = window.len();
            reached.windows_from_mid_run +=
                (window.start > 0 && run_goes_on(window.start - 1)) as u32;
            reached.windows_to_mid_run += run_goes_on(window.end - 1) as u32;
            for extent_pages in [1, 4, 16] {
                let cap = 32 * extent_pages as usize;
                for sample in 0..300 {
                    let start = rng.bounded_u64(len as u64) as usize;
                    // A third of the steps end the walk, where its start
                    // cuts them.
                    let visited = match sample % 3 {
                        0 => len.saturating_sub(1 + rng.bounded_u64(cap as u64) as usize),
                        _ => rng.bounded_u64(len as u64) as usize,
                    };
                    let (first, units, room, _) =
                        gather_both_ways(&long, window.clone(), extent_pages, start, visited);
                    let last = first + units - 1;
                    let cut = run_goes_on(last);
                    reached.steps_from_mid_run += (first > 0 && run_goes_on(first - 1)) as u32;
                    reached.runs_cut_by_the_room_cap += (cut && units == cap) as u32;
                    let one_run = (first..last).all(run_goes_on);
                    reached.steps_of_512_from_one_run += (units == 512 && one_run) as u32;
                    reached.runs_cut_by_the_wrap += (cut && units == room && room < cap) as u32;
                }
            }
        }
        let r = &reached;
        for (what, n, at_least) in [
            ("windows that begin inside a run", r.windows_from_mid_run, 3),
            ("windows that end inside a run", r.windows_to_mid_run, 3),
            ("steps that begin inside a run", r.steps_from_mid_run, 50),
            ("runs the room cap cuts", r.runs_cut_by_the_room_cap, 50),
            (
                "steps of 512 RIDs of one run",
                r.steps_of_512_from_one_run,
                50,
            ),
            ("runs the wrap cuts", r.runs_cut_by_the_wrap, 50),
        ] {
            assert!(n >= at_least, "only {n} reached: {what} ({r:?})");
        }
    }

    /// Where [`Plan::start_at`] first started an index plan: the first
    /// exact match of the joined location by linear search, else the
    /// first entry at or after its key, else the range start; backed up
    /// by the hinted pages.
    fn start_idx_by_linear_search(
        entries: &[Entry],
        loc: Location,
        back_up_pages: u64,
        pages_per_entry: u64,
    ) -> usize {
        let at = entries
            .iter()
            .position(|e| e.key == loc.key && e.payload == loc.pos)
            .or_else(|| entries.iter().position(|e| e.key >= loc.key))
            .unwrap_or(0);
        at.saturating_sub((back_up_pages / pages_per_entry) as usize)
    }

    #[test]
    fn start_at_picks_the_entry_the_linear_search_picked() {
        let mut rng = scanshare_prng::Rng::seed_from_u64(0x57A2);
        let mut reached = [0u32; 5];
        for case in 0..2_000 {
            // Few keys and few payloads: duplicate keys, and duplicate
            // `(key, payload)` pairs.
            let n = rng.random_range(1..40usize);
            let mut entries: Vec<Entry> = (0..n)
                .map(|_| Entry::new(rng.random_range(-5..15i64), rng.bounded_u64(4)))
                .collect();
            entries.sort();
            let (lo, hi) = (entries[0].key, entries[n - 1].key);
            let loc = match rng.bounded_u64(5) {
                // An entry of the range (the joined scan's own location).
                0 | 1 => {
                    let e = *rng.choose(&entries).unwrap();
                    Location::new(e.key, e.payload)
                }
                // A key of the range with a payload it may lack.
                2 => Location::new(rng.choose(&entries).unwrap().key, rng.bounded_u64(6)),
                // Before or after the range.
                3 => Location::new(lo - 1 - rng.bounded_u64(3) as i64, 0),
                _ => Location::new(hi + 1 + rng.bounded_u64(3) as i64, 0),
            };
            let exact = entries
                .iter()
                .any(|e| e.key == loc.key && e.payload == loc.pos);
            let dup = entries.windows(2).any(|w| w[0] == w[1]);
            let back_up = match rng.bounded_u64(3) {
                0 => 0,
                1 => rng.bounded_u64(n as u64),
                // More pages than the whole range.
                _ => n as u64 * 8 + rng.bounded_u64(50),
            };
            reached[0] += exact as u32;
            reached[1] += (!exact && (lo..=hi).contains(&loc.key)) as u32;
            reached[2] += (loc.key < lo || loc.key > hi) as u32;
            reached[3] += (back_up > n as u64 * 8) as u32;
            reached[4] += (exact && dup) as u32;
            let block_pages = rng.random_range(1..5u32);
            // The RID plan's range is a window on a wider shared index.
            let mut wider = entries.clone();
            wider.insert(0, Entry::new(lo - 10, 7));
            wider.push(Entry::new(hi + 10, 0));
            let wider = RidIndex::from(wider);
            let window = SharedEntries::key_range(&wider.entries, lo, hi);
            assert_eq!(*window, entries[..]);
            let mut plans = [
                Plan::new(Walk::Blocks {
                    entries: entries.clone().into(),
                    block_pages,
                }),
                Plan::new(Walk::rids(&wider, lo, hi)),
            ];
            for (plan, pages_per_entry) in plans.iter_mut().zip([block_pages as u64, 1]) {
                plan.start_at(loc, back_up);
                let want = start_idx_by_linear_search(&entries, loc, back_up, pages_per_entry);
                assert_eq!(
                    plan.start, want,
                    "case {case}: {loc:?} back {back_up} in {entries:?}"
                );
            }
        }
        assert!(reached.iter().all(|&n| n >= 50), "reached {reached:?}");
    }

    /// Tables of 1, 48 and 50 pages (48 is a multiple of every extent
    /// below, 50 of none), an MDC table of 3-page blocks whose cells
    /// span one to several blocks, and a RID-indexed heap whose keys
    /// scatter over its pages plus one key with a single entry.
    fn walk_db() -> Database {
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("amount", ColType::Float64),
        ]);
        let row = |i: i64| vec![Value::I32(i as i32), Value::F64(1.0)];
        for (name, rows) in [("one", 100), ("even", 48 * 511), ("odd", 50 * 511 - 10)] {
            db.create_heap_table(name, schema.clone(), (0..rows).map(row))
                .unwrap();
        }
        let cells = [100, 4_000, 1_600, 700, 5_000, 50];
        let mdc_rows = (0..5_000).flat_map(|i| {
            (0..cells.len() as i64)
                .filter(move |&k| i < cells[k as usize])
                .map(|k| (k, row(k)))
        });
        db.create_mdc_table("mdc", schema.clone(), 3, mdc_rows)
            .unwrap();
        let rid_rows = (0..6_000).map(|i| row(i % 60)).chain([row(1_000)]);
        db.create_heap_table_with_index("rids", schema, 0, rid_rows)
            .unwrap();
        db
    }

    /// Every step of table, MDC-index and RID plans, walked as a cursor
    /// walks them and digested: what each `gather` hands out (pages,
    /// RIDs, location, units, wrap), the next step's predicted pages,
    /// `done`, the range start and the page counts. Ranges of one unit,
    /// of a multiple of the extent and of not one; extents 1, 3 and 16;
    /// placed starts at the range's own locations, an unknown position
    /// and keys outside the range, with back-ups; and catch-up prefixes
    /// taken at several points. The digest is the one the per-access-path
    /// plans computed.
    #[test]
    fn walk_pin_every_step_of_every_access_path() {
        use scanshare::manager::UNKNOWN_POS;
        let db = walk_db();
        let w = world(&db);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let (mut ids, mut runs, mut peek) = (Vec::new(), Vec::new(), Vec::new());
        // Walk `plan` to its end, digesting every step. Returns the
        // locations it reported and, after `prefix_at` steps, the
        // catch-up prefix.
        let mut walk = |plan: &mut Plan, file: FileId, extent: u32, prefix_at: usize| {
            let (mut seen, mut prefix) = (Vec::new(), None);
            let mut steps = 0;
            loop {
                mix(plan.done() as u64);
                mix(plan.total_pages());
                mix(plan.visited_pages());
                if steps == prefix_at {
                    prefix = Some(plan.prefix());
                }
                if plan.done() {
                    break;
                }
                let start = plan.range_start();
                mix(start.key as u64);
                mix(start.pos);
                ids.clear();
                runs.clear();
                let (work, loc, units, wraps) = plan.gather(file, extent, &mut ids, &mut runs);
                mix(matches!(work, StepWork::Rids(_)) as u64);
                for id in &ids {
                    mix(((id.file.0 as u64) << 32) | id.page as u64);
                }
                for (at, slot) in per_entry(work, &runs) {
                    mix(((at as u64) << 16) | slot as u64);
                }
                for v in [loc.key as u64, loc.pos, units, wraps as u64] {
                    mix(v);
                }
                plan.advance(units);
                peek.clear();
                plan.peek_next_pages(file, extent, &mut peek);
                for id in &peek {
                    mix(((id.file.0 as u64) << 32) | id.page as u64);
                }
                seen.push(loc);
                steps += 1;
            }
            (seen, prefix)
        };
        let table = |name: &str| ScanSpec {
            table: name.into(),
            ..table_spec(Pred::True)
        };
        let index = |lo, hi| ScanSpec {
            table: "mdc".into(),
            ..index_spec(lo, hi)
        };
        let rid = |lo, hi| ScanSpec {
            table: "rids".into(),
            ..rid_spec(lo, hi)
        };
        let specs = [
            table("one"),
            table("even"),
            table("odd"),
            index(0, 0),
            index(1, 1),
            index(2, 4),
            index(0, 5),
            rid(1_000, 1_000),
            rid(7, 7),
            rid(4, 6),
            rid(0, 15),
        ];
        let mut lengths = Vec::new();
        let mut steps = 0;
        for spec in &specs {
            let fresh = || plan_scan(&db, &w, spec).unwrap();
            let file = fresh().file;
            // The range's own locations, from a walk at the range start.
            let (own, _) = walk(&mut fresh().plan, file, 16, usize::MAX);
            lengths.push(fresh().plan.total_pages());
            let (first, last) = (own[0], own[own.len() - 1]);
            let mid = own[own.len() / 2];
            let mut starts = vec![None];
            for loc in [
                first,
                mid,
                last,
                Location::new(mid.key, UNKNOWN_POS),
                Location::new(first.key - 1, 0),
                Location::new(last.key + 1, 0),
            ] {
                for back_up in [0, 1, 4, 7, 100_000] {
                    starts.push(Some((loc, back_up)));
                }
            }
            for extent in [1, 3, 16] {
                for &start in &starts {
                    for prefix_at in [0, 1, 3] {
                        let mut plan = fresh().plan;
                        if let Some((loc, back_up)) = start {
                            plan.start_at(loc, back_up);
                        }
                        let (seen, prefix) = walk(&mut plan, file, extent, prefix_at);
                        steps += seen.len();
                        if let Some(mut prefix) = prefix {
                            steps += walk(&mut prefix, file, extent, usize::MAX).0.len();
                        }
                    }
                }
            }
        }
        // One unit, a multiple of every extent, and neither.
        assert_eq!(lengths[..3], [1, 48, 50]);
        assert_eq!(lengths[3], 3, "one block");
        assert_eq!(lengths[7], 1, "one RID");
        assert!(lengths[8] % 3 != 0 && lengths[8] % 16 != 0);
        assert_eq!(lengths[10] % 16, 0);
        assert!(steps > 50_000, "only {steps} steps");
        assert_eq!(h, 11_007_938_810_134_424_123, "walk digest");
    }

    #[test]
    fn rid_scan_full_range_sees_every_row() {
        let db = small_db();
        let mut w = world(&db);
        let (r, m) = run_to_end(&db, &mut w, &rid_spec(0, 9));
        assert_eq!(r.count, 20_000);
        assert!((r.sums[0] - 60_000.0).abs() < 1e-6);
        assert!(m.physical_reads > 0);
    }

    #[test]
    fn rid_scan_range_restricts_keys() {
        let db = small_db();
        let mut w = world(&db);
        let (r, _) = run_to_end(&db, &mut w, &rid_spec(3, 4));
        assert_eq!(r.count, 4_000); // 2 of 10 keys
    }

    #[test]
    fn rid_scan_seeks_much_more_than_block_scan() {
        // §3.2: RIDs behind a key are scattered, so a cold RID scan of
        // one key seeks per page run, while the same rows clustered in
        // blocks read almost sequentially.
        let db = small_db();
        let mut w = world(&db);
        run_to_end(&db, &mut w, &rid_spec(0, 0));
        let rid_seeks = w.disk.stats().seeks;
        let rid_reads = w.disk.stats().pages_read;
        // One month = every heap page (month i on every page of 20k rows
        // striped by i % 10).
        assert_eq!(rid_reads, db.table("events").unwrap().num_pages() as u64);
        // All pages visited in ascending page order here (index payload
        // order), so runs coalesce; the point is the full-page touch.
        assert!(rid_seeks >= 1);
    }

    #[test]
    fn rid_scan_on_unindexed_table_is_rejected() {
        let db = small_db();
        let mut w = world(&db);
        let spec = ScanSpec {
            table: "orders".into(),
            ..rid_spec(0, 1)
        };
        let err = ScanExec::start(&db, &mut w, &spec, SimTime::ZERO).unwrap_err();
        assert_eq!(err, EngineError::NoRidIndex("orders".into()));
        assert_eq!(err.to_string(), "table 'orders' has no RID index");
    }

    #[test]
    fn shared_rid_scans_cover_their_ranges() {
        use scanshare::{ScanSharingManager, SharingConfig};
        let db = small_db();
        let pool = BufferPool::new(PoolConfig::new(256, ReplacementPolicy::PriorityLru));
        let mgr = ScanSharingManager::new(SharingConfig::new(256));
        let mut w = ExecWorld::new(db.store(), pool, EngineConfig::default(), Some(mgr));
        let spec = rid_spec(0, 9);
        let mut s1 = ScanExec::start(&db, &mut w, &spec, SimTime::ZERO).unwrap();
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            t = s1.step(&mut w, t).unwrap().unwrap();
        }
        let mut s2 = ScanExec::start(&db, &mut w, &spec, t).unwrap();
        let mut t2 = t;
        while let Some(next) = s2.step(&mut w, t2).unwrap() {
            t2 = next;
        }
        while let Some(next) = s1.step(&mut w, t).unwrap() {
            t = next;
        }
        assert_eq!(s1.result().count, 20_000);
        assert_eq!(s2.result().count, 20_000);
        assert_eq!(w.mgr.as_ref().unwrap().probe().scans.len(), 0);
    }

    #[test]
    fn prefetch_overlaps_io_and_speeds_up_a_solo_scan() {
        let db = small_db();
        let spec = ScanSpec {
            // CPU-heavy so there is processing time to hide I/O under.
            cpu: CpuClass::cpu_bound(),
            ..index_spec(0, 5)
        };
        let mut w_off = world(&db);
        let (r1, _) = run_to_end(&db, &mut w_off, &spec);
        let off_done = w_off.disk.free_at();

        let pool = BufferPool::new(PoolConfig::new(256, ReplacementPolicy::Lru));
        let mut w_on = ExecWorld::new(
            db.store(),
            pool,
            EngineConfig {
                prefetch_extents: 1,
                ..EngineConfig::default()
            },
            None,
        );
        let mut scan = ScanExec::start(&db, &mut w_on, &spec, SimTime::ZERO).unwrap();
        let mut t = SimTime::ZERO;
        while let Some(next) = scan.step(&mut w_on, t).unwrap() {
            t = next;
        }
        assert_eq!(scan.result(), r1, "same answer with prefetch");
        assert!(t < off_done.max(t) || t.as_micros() > 0, "scan completes");
        // With prefetch the scan finishes sooner than without.
        let off_elapsed = {
            let mut w = world(&db);
            let mut scan = ScanExec::start(&db, &mut w, &spec, SimTime::ZERO).unwrap();
            let mut t = SimTime::ZERO;
            while let Some(next) = scan.step(&mut w, t).unwrap() {
                t = next;
            }
            t
        };
        assert!(
            t < off_elapsed,
            "prefetch should hide I/O: {t} vs {off_elapsed}"
        );
        // Total physical reads are unchanged: prefetch moves reads, it
        // does not add any.
        assert_eq!(w_on.disk.stats().pages_read, w_off.disk.stats().pages_read);
    }

    #[test]
    fn table_scan_sees_every_row() {
        let db = small_db();
        let mut w = world(&db);
        let (r, m) = run_to_end(&db, &mut w, &table_spec(Pred::True));
        assert_eq!(r.count, 4000);
        assert!((r.sums[0] - 4000.0).abs() < 1e-9);
        assert!(m.physical_reads > 0);
        assert_eq!(
            m.logical_reads,
            db.table("orders").unwrap().num_pages() as u64
        );
    }

    #[test]
    fn table_scan_predicate_filters() {
        let db = small_db();
        let mut w = world(&db);
        let (r, _) = run_to_end(&db, &mut w, &table_spec(Pred::I32Between(0, 0, 2)));
        // months 0..=2 out of 12 over 4000 rows; 4000 % 12 = 4, so the
        // first four months get one extra row each.
        assert_eq!(r.count, 1002);
    }

    #[test]
    fn index_scan_full_range_sees_every_row() {
        let db = small_db();
        let mut w = world(&db);
        let (r, _) = run_to_end(&db, &mut w, &index_spec(0, 5));
        assert_eq!(r.count, 20_000);
        assert!((r.sums[0] - 40_000.0).abs() < 1e-9);
    }

    #[test]
    fn index_scan_range_restricts_cells() {
        let db = small_db();
        let mut w = world(&db);
        let (r, _) = run_to_end(&db, &mut w, &index_spec(2, 3));
        // Cells 2 and 3: 2/6 of the rows.
        assert_eq!(r.count, 20_000 / 3);
    }

    #[test]
    fn empty_index_range_finishes_immediately() {
        let db = small_db();
        let mut w = world(&db);
        let (r, m) = run_to_end(&db, &mut w, &index_spec(40, 50));
        assert_eq!(r.count, 0);
        assert_eq!(m.logical_reads, 0);
    }

    #[test]
    fn unknown_table_is_reported() {
        let db = small_db();
        let mut w = world(&db);
        let spec = ScanSpec {
            table: "nope".into(),
            ..table_spec(Pred::True)
        };
        let err = ScanExec::start(&db, &mut w, &spec, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, EngineError::UnknownTable(_)));
    }

    /// A column index out of range, a sum over a non-float, a group-by
    /// over a non-char and a predicate leaf on a column of another type
    /// are diagnosed when the scan starts — under pull and under push,
    /// and before the manager hears of the scan.
    #[test]
    fn specs_that_do_not_fit_the_schema_are_rejected_under_pull_and_push() {
        use scanshare::{ScanSharingManager, SharingConfig};
        let db = small_db();
        let pool = BufferPool::new(PoolConfig::new(256, ReplacementPolicy::PriorityLru));
        let mgr = ScanSharingManager::new(SharingConfig::new(256));
        let mut w = ExecWorld::new(db.store(), pool, EngineConfig::default(), Some(mgr));
        let and = |a, b| Pred::And(Box::new(a), Box::new(b));
        // `orders` is (month: Int32, amount: Float64).
        let cases = [
            (Pred::True, AggSpec::sums(vec![99]), 99, ColType::Float64),
            (Pred::True, AggSpec::sums(vec![1, 0]), 0, ColType::Float64),
            (
                Pred::True,
                AggSpec::grouped_sums(vec![1], vec![1]),
                1,
                ColType::Char,
            ),
            (
                Pred::I32Between(1, 0, 5),
                AggSpec::count_only(),
                1,
                ColType::Int32,
            ),
            (
                and(Pred::I32Between(0, 0, 5), Pred::F64LessThan(0, 1.0)),
                AggSpec::sums(vec![1]),
                0,
                ColType::Float64,
            ),
            (
                and(Pred::True, Pred::CharEq(2, b'A')),
                AggSpec::sums(vec![1]),
                2,
                ColType::Char,
            ),
        ];
        for (pred, agg, column, expected) in cases {
            let spec = ScanSpec {
                agg,
                ..table_spec(pred)
            };
            let want = EngineError::BadColumn {
                table: "orders".into(),
                column,
                expected,
            };
            let pull = ScanExec::start(&db, &mut w, &spec, SimTime::ZERO).unwrap_err();
            assert_eq!(pull, want);
            let push = crate::push::PushEngine::new()
                .admit(&db, &mut w, &spec, SimTime::ZERO)
                .unwrap_err();
            assert_eq!(push, want);
            assert_eq!(
                w.mgr.as_ref().unwrap().probe().scans.len(),
                0,
                "a rejected scan stayed registered"
            );
        }
        assert_eq!(
            EngineError::BadColumn {
                table: "orders".into(),
                column: 0,
                expected: ColType::Float64
            }
            .to_string(),
            "table 'orders' has no Float64 column 0"
        );
        // The spec that fits still runs, pushed.
        let ok = crate::push::PushEngine::new().admit(
            &db,
            &mut w,
            &table_spec(Pred::True),
            SimTime::ZERO,
        );
        assert!(matches!(ok, Ok(Some(_))));
    }

    /// A group key holds one byte per column, so a ninth group-by column
    /// would shift the first out of it and merge groups that differ only
    /// there. Such a spec is refused when its pipeline is compiled, with
    /// the table and the column count; eight columns still tell every
    /// group apart.
    #[test]
    fn more_than_eight_group_columns_are_refused() {
        let mut db = Database::new(16);
        let columns = (0..9).map(|i| Column::new(format!("c{i}"), ColType::Char));
        // Two rows that differ in their first column only.
        let rows = [b'A', b'B'].map(|c| {
            let mut row = vec![Value::Ch(b'x'); 9];
            row[0] = Value::Ch(c);
            row
        });
        let schema = Schema::new(columns.collect());
        db.create_heap_table("wide", schema, rows).unwrap();
        let mut w = world(&db);
        let spec = |columns: usize| ScanSpec {
            table: "wide".into(),
            agg: AggSpec::grouped_sums(vec![], (0..columns).collect()),
            ..table_spec(Pred::True)
        };
        let want = EngineError::TooManyGroupColumns {
            table: "wide".into(),
            columns: 9,
        };
        let err = ScanExec::start(&db, &mut w, &spec(9), SimTime::ZERO).unwrap_err();
        assert_eq!(err, want);
        assert_eq!(
            want.to_string(),
            "a scan of 'wide' groups by 9 columns, at most 8 fit a group key"
        );
        let (eight, _) = run_to_end(&db, &mut w, &spec(8));
        assert_eq!(eight.groups.len(), 2);
    }

    #[test]
    fn index_scan_on_heap_table_is_rejected() {
        let db = small_db();
        let mut w = world(&db);
        let spec = ScanSpec {
            table: "orders".into(),
            ..index_spec(0, 5)
        };
        let err = ScanExec::start(&db, &mut w, &spec, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, EngineError::NotClustered(_)));
    }

    #[test]
    fn second_warm_scan_is_faster_and_reads_less() {
        let db = small_db();
        let mut w = world(&db);
        // The orders table fits the 256-frame pool: a later second scan
        // is fully warm.
        let (_, m1) = run_to_end(&db, &mut w, &table_spec(Pred::True));
        let (_, m2) = run_from(&db, &mut w, &table_spec(Pred::True), SimTime::from_secs(10));
        assert!(m2.physical_reads == 0, "warm scan reads nothing");
        assert!(m2.io_wait < m1.io_wait);
    }

    #[test]
    fn shared_scan_starting_midway_covers_the_whole_range() {
        use scanshare::{ScanSharingManager, SharingConfig};
        let db = small_db();
        let pool = BufferPool::new(PoolConfig::new(256, ReplacementPolicy::PriorityLru));
        let mgr = ScanSharingManager::new(SharingConfig::new(256));
        let mut w = ExecWorld::new(db.store(), pool, EngineConfig::default(), Some(mgr));

        // First scan makes some progress (3 of its ~12 blocks), leaving
        // plenty of remaining overlap for a join.
        let spec = index_spec(0, 5);
        let mut s1 = ScanExec::start(&db, &mut w, &spec, SimTime::ZERO).unwrap();
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            t = s1.step(&mut w, t).unwrap().unwrap();
        }
        // Second scan joins mid-range, wraps, and still sees every row.
        let mut s2 = ScanExec::start(&db, &mut w, &spec, t).unwrap();
        let mut t2 = t;
        while let Some(next) = s2.step(&mut w, t2).unwrap() {
            t2 = next;
        }
        assert_eq!(s2.result().count, 20_000);
        assert_eq!(w.mgr.as_ref().unwrap().stats().scans_joined, 1);
        // Finish the first scan too.
        while let Some(next) = s1.step(&mut w, t).unwrap() {
            t = next;
        }
        assert_eq!(s1.result().count, 20_000);
        assert_eq!(w.mgr.as_ref().unwrap().probe().scans.len(), 0);
    }
}

#[cfg(test)]
/// Naive answer oracle for the row kernel (the row-level slice of
/// ROADMAP item 1a). The reference evaluator is the public one no
/// production code calls — [`Pred::eval`], [`AggSpec::group_key`] and
/// `RowRef::get_f64` — folded one row at a time in delivery order for a
/// RID step, and for a whole-page step a page at a time: each page's rows
/// into a subtotal from +0.0, added in delivery order. The kernel must
/// agree with it on every count and on every sum bit for bit, and a
/// whole-page fold with the row-at-a-time fold it replaced on every
/// count and key, each sum within the bound a changed summation order
/// keeps to ([`assert_near`]). Written and run green against the per-row
/// `matches`/`accumulate` loop before that loop was replaced.
mod kernel_oracle {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use scanshare_prng::Rng;
    use scanshare_relstore::{ColType, Column, HeapPageBuilder, RowRef, Value};
    use scanshare_storage::{FileStore, PoolConfig, ReplacementPolicy};

    const N_F64: usize = 10;
    const N_CHAR: usize = 3;
    /// Column indexes: two `Int32`, then the floats, then the chars.
    const F0: usize = 2;
    const C0: usize = F0 + N_F64;

    fn schema() -> Schema {
        let mut cols = vec![
            Column::new("a", ColType::Int32),
            Column::new("b", ColType::Int32),
        ];
        cols.extend((0..N_F64).map(|i| Column::new(format!("f{i}"), ColType::Float64)));
        cols.extend((0..N_CHAR).map(|i| Column::new(format!("c{i}"), ColType::Char)));
        Schema::new(cols)
    }

    /// A float whose magnitude spans ~24 decimal orders, so a changed
    /// summation order changes low bits; `special` cases add signed
    /// zeros, one infinity and the one canonical NaN.
    fn float(rng: &mut Rng, special: bool) -> f64 {
        if special {
            match rng.bounded_u64(12) {
                0 => return -0.0,
                1 => return 0.0,
                2 => return f64::INFINITY,
                3 => return f64::NAN,
                _ => {}
            }
        }
        let mag = 10f64.powi(rng.random_range(-12..12i32));
        (rng.next_f64() - 0.5) * mag
    }

    /// One heap file of dense, partly filled, empty and slotted-fallback
    /// pages. Returns the store, the file and every page's rows.
    fn build_file(
        rng: &mut Rng,
        s: &Schema,
        n_pages: usize,
        alphabet: u64,
        special: bool,
    ) -> (FileStore, FileId, Vec<Vec<Vec<u8>>>) {
        let mut store = FileStore::new(16);
        let file = store.create_file();
        let width = s.row_width();
        let full = (scanshare_storage::PAGE_SIZE - 4) / (width + 4);
        let mut pages = Vec::new();
        for _ in 0..n_pages {
            let shape = rng.bounded_u64(8);
            let n_rows = match shape {
                0 => 0,
                1 | 2 => rng.random_range(1..full),
                _ => full - 1,
            };
            // Shape 3: one record carries trailing bytes, so the page is
            // not fixed-width and takes the slotted `rows()` path.
            let long_at = (shape == 3).then(|| rng.random_range(0..n_rows));
            let mut b = HeapPageBuilder::new();
            let mut rows = Vec::new();
            for r in 0..n_rows {
                let mut vals = vec![
                    Value::I32(rng.random_range(-20..20i32)),
                    Value::I32(rng.random_range(0..1000i32)),
                ];
                vals.extend((0..N_F64).map(|_| Value::F64(float(rng, special))));
                vals.extend((0..N_CHAR).map(|_| Value::Ch(b'A' + rng.bounded_u64(alphabet) as u8)));
                let extra = if long_at == Some(r) { 5 } else { 0 };
                let mut buf = vec![0xEEu8; width + extra];
                s.encode_row(&vals, &mut buf);
                b.push(&buf).expect("row fits");
                rows.push(buf);
            }
            store.append_page(file, b.finish()).unwrap();
            pages.push(rows);
        }
        (store, file, pages)
    }

    fn leaf(rng: &mut Rng, alphabet: u64) -> Pred {
        match rng.bounded_u64(10) {
            0..=2 => {
                let lo = rng.random_range(-22..22i32);
                Pred::I32Between(0, lo, lo + rng.random_range(0..30i32))
            }
            3..=5 => Pred::F64LessThan(
                F0 + rng.bounded_u64(N_F64 as u64) as usize,
                float(rng, false),
            ),
            6 | 7 => Pred::CharEq(
                C0 + rng.bounded_u64(N_CHAR as u64) as usize,
                b'A' + rng.bounded_u64(alphabet) as u8,
            ),
            // Always false: an empty interval, or a char no row has.
            8 => Pred::I32Between(1, 10, 9),
            _ => Pred::CharEq(C0, b'!'),
        }
    }

    fn pred(rng: &mut Rng, alphabet: u64) -> Pred {
        let and = |a, b| Pred::And(Box::new(a), Box::new(b));
        match rng.bounded_u64(8) {
            0 => Pred::True,
            1 => leaf(rng, alphabet),
            2 => and(leaf(rng, alphabet), leaf(rng, alphabet)),
            // Three leaves, nested to the left or to the right, with a
            // `True` (the conjunction identity) in between.
            3 => and(
                and(leaf(rng, alphabet), Pred::True),
                and(leaf(rng, alphabet), leaf(rng, alphabet)),
            ),
            4 => and(
                and(leaf(rng, alphabet), leaf(rng, alphabet)),
                leaf(rng, alphabet),
            ),
            // Contradictions: each leaf passes rows, no row passes both.
            5 => and(Pred::CharEq(C0, b'A'), Pred::CharEq(C0, b'B')),
            6 => and(Pred::I32Between(0, -20, 0), Pred::I32Between(0, 1, 19)),
            // A selective first leaf with survivors for the second.
            _ => and(Pred::I32Between(0, -5, 5), Pred::F64LessThan(F0 + 1, 0.0)),
        }
    }

    /// `wide` groups every row by all three chars, for hundreds of keys.
    fn spec(rng: &mut Rng, alphabet: u64, n_groups: usize, wide: bool) -> ScanSpec {
        let n_sums = rng.bounded_u64(11) as usize;
        let pick = |rng: &mut Rng, base: usize, n: usize| base + rng.bounded_u64(n as u64) as usize;
        let group_by = match wide {
            true => (C0..C0 + N_CHAR).collect(),
            false => (0..n_groups).map(|_| pick(rng, C0, N_CHAR)).collect(),
        };
        ScanSpec {
            table: "t".into(),
            access: Access::FullTable,
            pred: if wide {
                Pred::True
            } else {
                pred(rng, alphabet)
            },
            agg: AggSpec::grouped_sums(
                (0..n_sums).map(|_| pick(rng, F0, N_F64)).collect(),
                group_by,
            ),
            cpu: CpuClass::io_bound(),
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        }
    }

    /// The reference fold, through the public evaluator: one row at a
    /// time, or a page at a time — the page's rows folded into a fresh
    /// `Naive`, which is then added.
    #[derive(Default)]
    struct Naive {
        count: u64,
        sums: Vec<f64>,
        groups: BTreeMap<i64, (u64, Vec<f64>)>,
        /// The absolute values of each sum's addends, and of each group's
        /// sums', summed: what [`assert_near`] bounds a difference by.
        abs: Vec<f64>,
        group_abs: BTreeMap<i64, Vec<f64>>,
    }

    impl Naive {
        fn fold(&mut self, spec: &ScanSpec, row: &RowRef<'_>) {
            if !spec.pred.eval(row) {
                return;
            }
            let n = spec.agg.sum_cols.len();
            self.sums.resize(n, 0.0);
            self.abs.resize(n, 0.0);
            self.count += 1;
            for (i, &c) in spec.agg.sum_cols.iter().enumerate() {
                self.sums[i] += row.get_f64(c);
                self.abs[i] += row.get_f64(c).abs();
            }
            if !spec.agg.group_by.is_empty() {
                let key = spec.agg.group_key(row);
                let g = self.groups.entry(key).or_insert_with(|| (0, vec![0.0; n]));
                let abs = self.group_abs.entry(key).or_insert_with(|| vec![0.0; n]);
                g.0 += 1;
                for (i, &c) in spec.agg.sum_cols.iter().enumerate() {
                    g.1[i] += row.get_f64(c);
                    abs[i] += row.get_f64(c).abs();
                }
            }
        }

        /// Fold one page's `rows` into a subtotal from +0.0, and add it:
        /// its count and each sum, and each group's to the same group.
        fn fold_page<'r>(&mut self, spec: &ScanSpec, rows: impl Iterator<Item = RowRef<'r>>) {
            let mut page = Naive::default();
            rows.for_each(|row| page.fold(spec, &row));
            let n = spec.agg.sum_cols.len();
            self.sums.resize(n, 0.0);
            self.count += page.count;
            for (i, sum) in self.sums.iter_mut().enumerate() {
                *sum += page.sums.get(i).copied().unwrap_or(0.0);
            }
            for (key, (count, sums)) in page.groups {
                let g = self.groups.entry(key).or_insert_with(|| (0, vec![0.0; n]));
                g.0 += count;
                for (total, sum) in g.1.iter_mut().zip(sums) {
                    *total += sum;
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same(case: u64, spec: &ScanSpec, got: &QueryResult, want: &Naive) {
        let ctx = format!("case {case}: {:?} / {:?}", spec.pred, spec.agg);
        assert_eq!(got.count, want.count, "{ctx}");
        let mut want_sums = want.sums.clone();
        want_sums.resize(spec.agg.sum_cols.len(), 0.0);
        assert_eq!(bits(&got.sums), bits(&want_sums), "{ctx}");
        let got_groups: Vec<_> = got
            .groups
            .iter()
            .map(|(k, g)| (*k, g.count, bits(&g.sums)))
            .collect();
        let want_groups: Vec<_> = want
            .groups
            .iter()
            .map(|(k, g)| (*k, g.0, bits(&g.1)))
            .collect();
        assert_eq!(got_groups, want_groups, "{ctx}");
    }

    /// `got` against `want`, a fold of the same rows in another order:
    /// counts and group keys exact, and each sum of n addends within
    /// 2(n − 1)·2⁻⁵³·Σ|xᵢ| of `want`'s — each order is within (n − 1)·2⁻⁵³·Σ|xᵢ| of
    /// the exact sum, to first order. A sum with a non-finite addend is
    /// the same infinity, or NaN, both ways. Returns whether any sum
    /// differs in its bits.
    fn assert_near(case: u64, spec: &ScanSpec, got: &QueryResult, want: &Naive) -> bool {
        let ctx = format!("case {case}: {:?} / {:?}", spec.pred, spec.agg);
        let mut moved = false;
        let mut near = |got: &[f64], want: &[f64], abs: &[f64], n: u64| {
            for ((&g, &w), &abs) in got.iter().zip(want).zip(abs) {
                moved |= g.to_bits() != w.to_bits();
                let bound = 2.0 * n.saturating_sub(1) as f64 * f64::EPSILON / 2.0 * abs;
                let ok = match abs.is_finite() {
                    true => (g - w).abs() <= bound,
                    false => g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan(),
                };
                assert!(
                    ok,
                    "{ctx}: {g:e} vs {w:e}, bound {bound:e} over {n} addends"
                );
            }
        };
        assert_eq!(got.count, want.count, "{ctx}");
        let mut want_sums = want.sums.clone();
        want_sums.resize(spec.agg.sum_cols.len(), 0.0);
        let mut abs = want.abs.clone();
        abs.resize(want_sums.len(), 0.0);
        near(&got.sums, &want_sums, &abs, want.count);
        let got_keys: Vec<(i64, u64)> = got.groups.iter().map(|(k, g)| (*k, g.count)).collect();
        let want_keys: Vec<(i64, u64)> = want.groups.iter().map(|(k, g)| (*k, g.0)).collect();
        assert_eq!(got_keys, want_keys, "{ctx}");
        for (key, g) in &got.groups {
            let (count, sums) = &want.groups[key];
            near(&g.sums, sums, &want.group_abs[key], *count);
        }
        moved
    }

    /// What the cases reached, so the matrix cannot quietly stop
    /// exercising what it was built for.
    #[derive(Default)]
    struct Reached {
        wrapped_table: u32,
        wrapped_rid: u32,
        rid_page_revisited_out_of_order: u32,
        slotted_pages: u32,
        empty_pages: u32,
        empty_result: u32,
        sums_over_8: u32,
        groups_17_to_300: u32,
        groups_over_300: u32,
        ninth_group_mid_page: u32,
        pages_over_8_groups: u32,
        sums_moved: u32,
        grouped_no_sums: u32,
        grouped_over_8_sums: u32,
        one_column_keys: u32,
        three_column_keys: u32,
    }

    /// The push engine keeps every finished consumer until the run ends,
    /// so an aggregate that never groups must own its sums and nothing
    /// else (an eager 1 KB table per consumer once cost `tpch64_push` 7 %
    /// of its peak RSS), and a grouped one no more than its groups need:
    /// no page subtotal is kept.
    #[test]
    fn ungrouped_state_owns_only_its_sums() {
        for n in [0, 2, 8, 11] {
            let mut agg = AggState::new(n);
            let pipe = RowPipeline::compile(
                &Pred::True,
                &AggSpec::sums((F0..F0 + n).map(|c| F0 + (c - F0) % N_F64).collect()),
                &schema(),
                "t",
            )
            .unwrap();
            let row = vec![0u8; schema().row_width()];
            pipe.fold_region(&mut agg, &mut Vec::new(), &row);
            assert_eq!((agg.count, agg.sums.capacity()), (1, n));
            assert_eq!(agg.keys.capacity(), 0);
            assert_eq!(agg.counts.capacity(), 0);
            assert_eq!(agg.group_sums.capacity(), 0);
            assert_eq!(agg.slots.capacity(), 0);
        }
        // A Q1 page: six groups of four sums.
        let s = schema();
        let agg = AggSpec::grouped_sums((F0..F0 + 4).collect(), vec![C0, C0 + 1]);
        let pipe = RowPipeline::compile(&Pred::True, &agg, &s, "t").unwrap();
        let mut page = HeapPageBuilder::new();
        for r in 0..80 {
            let mut vals = vec![Value::I32(0), Value::I32(0)];
            vals.extend((0..N_F64).map(|i| Value::F64(i as f64)));
            vals.extend([b"ANR"[r % 3], b"FO"[r / 3 % 2], b'x'].map(Value::Ch));
            let mut row = vec![0; s.row_width()];
            s.encode_row(&vals, &mut row);
            page.push(&row).expect("row fits");
        }
        let (mut total, mut agg) = (AggState::default(), AggState::new(4));
        let rows = pipe.fold_page(&mut total, &mut Vec::new(), &mut Vec::new(), &page.finish());
        agg.add_page(total.subtotal(rows.unwrap()));
        assert_eq!((agg.count, agg.keys.len()), (80, 6));
        let capacities = [
            agg.keys.capacity(),
            agg.counts.capacity(),
            agg.group_sums.capacity(),
            agg.slots.capacity(),
        ];
        // Six groups, started one by one.
        assert_eq!(capacities, [8, 8, 32, 64]);
    }

    /// A table without columns has zero-byte records; they still count.
    /// A record shorter than its schema, and a slot descriptor that
    /// points past the page end on a page whose rows are copied slot by
    /// slot (its first record one byte longer than the schema, so it is
    /// not fixed-width), are errors, not panics.
    #[test]
    fn zero_width_rows_count_and_bad_records_are_rejected() {
        let mut db = Database::new(16);
        db.create_heap_table(
            "t",
            Schema::new(vec![]),
            (0..500).map(|_| Vec::<Value>::new()),
        )
        .unwrap();
        let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
        let mut world = ExecWorld::new(db.store(), pool, EngineConfig::default(), None);
        let spec = ScanSpec {
            agg: AggSpec::count_only(),
            pred: Pred::True,
            ..spec(&mut Rng::seed_from_u64(1), 1, 0, false)
        };
        let mut scan = ScanExec::start(&db, &mut world, &spec, SimTime::ZERO).unwrap();
        let mut now = SimTime::ZERO;
        while let Some(next) = scan.step(&mut world, now).unwrap() {
            now = next;
        }
        assert_eq!(scan.result().count, 500);

        let s = schema();
        let width = s.row_width();
        let mut short = HeapPageBuilder::new();
        short.push(&vec![0u8; width - 1]).unwrap();
        let mut slot_past_end = HeapPageBuilder::new();
        slot_past_end.push(&vec![0u8; width + 1]).unwrap();
        slot_past_end.push(&vec![0u8; width]).unwrap();
        let mut slot_past_end = slot_past_end.finish().to_vec();
        // Slot 1's descriptor, second from the end: its offset.
        let at = scanshare_storage::PAGE_SIZE - 8;
        slot_past_end[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        for page in [short.finish(), slot_past_end.into()] {
            let mut store = FileStore::new(16);
            let file = store.create_file();
            store.append_page(file, page).unwrap();
            let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
            let mut world = ExecWorld::new(&store, pool, EngineConfig::default(), None);
            let stepped = step_extent(
                &mut world,
                SimTime::ZERO,
                &mut Cursor::new(file, Plan::new(Walk::Pages(1))),
                &mut StepScratch::default(),
                &mut [Consumer::new(&spec, &s, SimTime::ZERO).unwrap()],
                &[0],
                false,
            );
            assert!(matches!(
                stepped,
                Err(EngineError::Storage(StorageError::Corrupt(_)))
            ));
        }
    }

    /// A RID that names a slot its page does not have, or a record
    /// shorter than the schema, is `Corrupt` whether its page is
    /// fixed-width (folded where it lies) or slotted (gathered first),
    /// among short runs or at the end of a long one — and the same RIDs
    /// without the bad one are counted. A bad RID just past the step's
    /// room cuts its run but is not the step's: the step counts its good
    /// rows.
    #[test]
    fn rid_steps_reject_bad_slots_and_short_records() {
        let s = schema();
        let width = s.row_width();
        let mut store = FileStore::new(16);
        let file = store.create_file();
        let page_of = |lens: &[usize]| {
            let mut page = HeapPageBuilder::new();
            for &len in lens {
                page.push(&vec![0u8; len]).unwrap();
            }
            page.finish()
        };
        // Page 0 is fixed-width, page 1 has a long record (slotted), page
        // 2 a short one.
        store
            .append_page(file, page_of(&[width, width, width]))
            .unwrap();
        store
            .append_page(file, page_of(&[width, width + 3, width]))
            .unwrap();
        store
            .append_page(file, page_of(&[width, width - 1]))
            .unwrap();
        let spec = ScanSpec {
            agg: AggSpec::count_only(),
            pred: Pred::True,
            ..spec(&mut Rng::seed_from_u64(1), 1, 0, false)
        };
        // One step over `rids`: the rows it counted, and the RIDs it took.
        let run = |rids: &[(u32, u16)]| {
            let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
            let mut world = ExecWorld::new(&store, pool, EngineConfig::default(), None);
            let entries = rids
                .iter()
                .enumerate()
                .map(|(k, &(page, slot))| Entry::new(k as i64, Rid::new(page, slot).pack()))
                .collect::<Vec<_>>();
            let mut cursor = Cursor::new(file, Plan::new(Walk::all_rids(entries)));
            let mut consumers = [Consumer::new(&spec, &s, SimTime::ZERO).unwrap()];
            step_extent(
                &mut world,
                SimTime::ZERO,
                &mut cursor,
                &mut StepScratch::default(),
                &mut consumers,
                &[0],
                false,
            )
            .map(|_| (consumers[0].result().count, cursor.plan.visited_pages()))
        };
        let corrupt = |rids: &[(u32, u16)]| {
            matches!(
                run(rids),
                Err(EngineError::Storage(StorageError::Corrupt(_)))
            )
        };
        let good = [(0, 0), (0, 2), (0, 2), (1, 1), (1, 0), (0, 1), (2, 0)];
        assert_eq!(run(&good).unwrap(), (7, 7));
        for bad in [(0, 3), (0, u16::MAX), (1, 3), (2, 1), (2, 2)] {
            for at in [0, 3, good.len()] {
                let mut rids = good.to_vec();
                rids.insert(at, bad);
                assert!(corrupt(&rids), "RID {bad:?} at {at} was not rejected");
            }
        }
        // Long runs on the fixed-width and the slotted page, and a bad RID
        // at the end of one.
        let long = |page: u32, n: usize| (0..n).map(move |k| (page, k as u16 % 3));
        let cap = 32 * EngineConfig::default().extent_pages as usize;
        for page in [0, 1] {
            let rids: Vec<(u32, u16)> = long(page, 100).chain(good).collect();
            assert_eq!(run(&rids).unwrap(), (107, 107), "page {page}");
            for bad in [(page, 3), (page, u16::MAX)] {
                let mut rids: Vec<(u32, u16)> = long(page, 100).collect();
                rids.push(bad);
                assert!(
                    corrupt(&rids),
                    "RID {bad:?} after a long run was not rejected"
                );
                // Just past the room, the bad RID is the next step's: this
                // one takes the run's first `cap` RIDs and counts them.
                let mut rids: Vec<(u32, u16)> = long(page, cap).collect();
                rids.push(bad);
                rids.extend(long(page, 10));
                assert_eq!(run(&rids).unwrap(), (cap as u64, cap as u64), "{bad:?}");
                // Just inside it, the bad RID is the step's.
                rids.swap(cap - 1, cap);
                assert!(
                    corrupt(&rids),
                    "RID {bad:?} at the room's end was not rejected"
                );
            }
        }
    }

    /// The RID fold as it was before a step folded in one pass: one run
    /// of same-page RIDs at a time, each with its own binary search,
    /// `HeapPage`, layout check and kernel call. The reference the step
    /// fold is held to.
    fn fold_rids_per_run(
        pipe: &RowPipeline,
        pool: &BufferPool,
        pages: &[(PageId, u32)],
        rids: &[(PageId, u16)],
        states: &mut [AggState],
    ) -> EngineResult<u64> {
        let (mut sel, mut gathered) = (Vec::new(), Vec::new());
        let mut fold = |gathered: &[u8]| {
            for s in states.iter_mut() {
                pipe.fold_region(s, &mut sel, gathered);
            }
        };
        let (width, stride) = (pipe.width, pipe.stride());
        for run in rids.chunk_by(|a, b| a.0 == b.0) {
            let at = pages
                .binary_search_by_key(&run[0].0, |&(id, _)| id)
                .expect("page fetched");
            let page = HeapPage::new(pool.slot_buf(pages[at].1))?;
            if let Some(region) = page.dense_region(width) {
                gathered.clear();
                for &(_, slot) in run {
                    if slot >= page.num_rows() {
                        page.row_bytes(slot)?;
                    }
                    gathered.extend_from_slice(row_at(region, stride, slot as u32));
                }
                fold(&gathered);
            } else {
                gathered.clear();
                for &(_, slot) in run {
                    let row = page.row_bytes(slot)?;
                    let fields = row.get(..width).ok_or_else(|| {
                        StorageError::Corrupt(format!("{}-byte record", row.len()))
                    })?;
                    gathered.extend_from_slice(fields);
                    gathered.resize(gathered.len() + stride - width, 0);
                }
                fold(&gathered);
            }
        }
        Ok(rids.len() as u64)
    }

    /// Seeded RID steps fold exactly what the per-run reference folds:
    /// up to 16 pages a step in any order, slots repeated and out of
    /// order, fixed-width pages beside slotted ones, runs of one RID to
    /// more than a step's room and runs the room cuts, with predicates
    /// and groups, over states that carry their totals from step to step.
    #[test]
    fn rid_steps_fold_what_the_per_run_reference_folds_bit_for_bit() {
        #[derive(Default)]
        struct Reached {
            steps_of_16_pages: u32,
            pages_out_of_order: u32,
            slots_repeated: u32,
            slotted_pages: u32,
            with_leaves: u32,
            grouped: u32,
            runs_of_64_or_more: u32,
            runs_cut: u32,
        }
        let s = schema();
        let mut reached = Reached::default();
        for case in 0..200u64 {
            let mut rng = Rng::seed_from_u64(0x57E9_0000 + case);
            let alphabet = *rng.choose(&[1, 2, 3, 5, 7]).unwrap();
            let n_groups = rng.bounded_u64(3) as usize;
            let n_pages = rng.random_range(1..40usize);
            let (store, file, pages) = build_file(&mut rng, &s, n_pages, alphabet, case % 8 == 5);
            let live: Vec<usize> = (0..n_pages).filter(|&p| !pages[p].is_empty()).collect();
            if live.is_empty() {
                continue;
            }
            // Runs of one to four RIDs on a page (of 64 to 700 in every
            // fourth case), pages drawn from a small pool so they come
            // back, a slot now and then repeated.
            let hot: Vec<usize> = (0..rng.random_range(1..24usize))
                .map(|_| *rng.choose(&live).unwrap())
                .collect();
            let (n_runs, run_len) = match case % 4 {
                3 => (1..12, 64..700),
                _ => (1..400, 1..5),
            };
            let mut entries: Vec<Entry> = Vec::new();
            for _ in 0..rng.random_range(n_runs) {
                let p = *rng.choose(&hot).unwrap();
                for _ in 0..rng.random_range(run_len.clone()) {
                    let slot = match entries.last() {
                        Some(prev) if rng.bounded_u64(6) == 0 => Rid::unpack(prev.payload).slot,
                        _ => rng.bounded_u64(pages[p].len() as u64) as u16,
                    };
                    let rid = Rid::new(p as u32, slot.min(pages[p].len() as u16 - 1));
                    entries.push(Entry::new(entries.len() as i64, rid.pack()));
                }
            }
            let spec = spec(&mut rng, alphabet, n_groups, false);
            let pipe = RowPipeline::compile(&spec.pred, &spec.agg, &s, "t").unwrap();
            let n_sums = spec.agg.sum_cols.len();
            let k = rng.random_range(1..4usize);
            let mut want: Vec<AggState> = (0..k).map(|_| AggState::new(n_sums)).collect();
            reached.with_leaves += !pipe.leaves.is_empty() as u32;
            reached.grouped += !pipe.group_offs.is_empty() as u32;
            reached.slotted_pages +=
                pages.iter().flatten().any(|r| r.len() != s.row_width()) as u32;

            let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
            let mut world = ExecWorld::new(&store, pool, EngineConfig::default(), None);
            let page_of = |at: usize| entries.get(at).map(|e| Rid::unpack(e.payload).page);
            let mut plan = Plan::new(Walk::all_rids(entries.clone()));
            let mut scratch = StepScratch::default();
            let mut states: Vec<AggState> = (0..k).map(|_| AggState::new(n_sums)).collect();
            while !plan.done() {
                scratch.ids.clear();
                scratch.runs.clear();
                let first = plan.visited;
                let (work, _, units, _) =
                    plan.gather(file, 16, &mut scratch.ids, &mut scratch.runs);
                world
                    .fetch_extent(SimTime::ZERO, &scratch.ids, &mut scratch.pages)
                    .unwrap();
                let rids: Vec<(PageId, u16)> = (per_entry(work, &scratch.runs).into_iter())
                    .map(|(at, slot)| (scratch.ids[at as usize], slot))
                    .collect();
                let end = first + units as usize;
                reached.runs_cut += (page_of(end - 1) == page_of(end)) as u32;
                let longest = rids.chunk_by(|a, b| a.0 == b.0).map(<[_]>::len).max();
                reached.runs_of_64_or_more += (longest >= Some(64)) as u32;
                reached.steps_of_16_pages += (scratch.ids.len() == 16) as u32;
                reached.pages_out_of_order += scratch.ids.windows(2).any(|w| w[1] < w[0]) as u32;
                reached.slots_repeated += rids.windows(2).any(|w| w[0] == w[1]) as u32;
                let rows = fold_rids_per_run(&pipe, &world.pool, &scratch.pages, &rids, &mut want)
                    .unwrap();
                for agg in &mut states {
                    let got = pipe.fold_extent(&world.pool, None, work, &mut scratch, agg);
                    assert_eq!(got.unwrap(), rows, "case {case}");
                }
                world
                    .release_pages(&scratch.pages, PagePriority::Normal)
                    .unwrap();
                plan.advance(units);
            }
            for (got, want) in states.iter().zip(&want) {
                let (got, want) = (got.result(), want.result());
                let groups = |r: &QueryResult| {
                    r.groups
                        .iter()
                        .map(|(key, g)| (*key, g.count, bits(&g.sums)))
                        .collect::<Vec<_>>()
                };
                assert_eq!(got.count, want.count, "case {case}");
                assert_eq!(bits(&got.sums), bits(&want.sums), "case {case}");
                assert_eq!(groups(&got), groups(&want), "case {case}");
            }
        }
        let r = &reached;
        for (what, n) in [
            ("steps of 16 pages", r.steps_of_16_pages),
            ("steps whose pages come out of order", r.pages_out_of_order),
            ("steps that repeat a slot", r.slots_repeated),
            ("slotted-fallback pages", r.slotted_pages),
            ("predicates", r.with_leaves),
            ("group-bys", r.grouped),
            ("steps with a run of 64 RIDs or more", r.runs_of_64_or_more),
            ("steps that cut a run", r.runs_cut),
        ] {
            assert!(n >= 5, "only {n} cases reached: {what}");
        }
    }

    #[test]
    fn kernel_matches_the_naive_fold_bit_for_bit() {
        let s = schema();
        let mut reached = Reached::default();
        for case in 0..640u64 {
            let mut rng = Rng::seed_from_u64(0x0A11_CE00 + case);
            let n_groups = rng.bounded_u64(4) as usize;
            // Alphabet 7 over three columns reaches 343 keys, 16 over
            // three 4096; small alphabets keep most cases at a handful.
            let wide = case % 16 == 9;
            let alphabet = match wide {
                true => 16,
                false => *rng.choose(&[1, 2, 3, 3, 5, 7, 7, 16]).unwrap(),
            };
            let special = case % 8 == 5;
            let n_pages = match rng.bounded_u64(10) {
                0 if !wide => rng.bounded_u64(3) as usize,
                _ => rng.random_range(3..40usize),
            };
            let (store, file, pages) = build_file(&mut rng, &s, n_pages, alphabet, special);
            let specs: Vec<ScanSpec> = (0..rng.random_range(1..4usize))
                .map(|_| spec(&mut rng, alphabet, n_groups, wide))
                .collect();

            // The delivery order the plan promises, as (page, slot).
            let all: Vec<(usize, usize)> = pages
                .iter()
                .enumerate()
                .flat_map(|(p, rows)| (0..rows.len()).map(move |r| (p, r)))
                .collect();
            let rid_plan = case % 3 == 2 && !all.is_empty();
            let (plan, order): (Plan, Vec<(usize, usize)>) = if rid_plan {
                // A RID index over a random key: key order is not page
                // order, and some rows are indexed twice.
                let mut entries: Vec<Entry> = all
                    .iter()
                    .chain(all.iter().take(all.len() / 7))
                    .filter_map(|&(p, r)| {
                        let key = rng.bounded_u64(50) as i64;
                        let rid = Rid::new(p as u32, r as u16).pack();
                        (rng.bounded_u64(4) > 0).then(|| Entry::new(key, rid))
                    })
                    .collect();
                if entries.is_empty() {
                    entries.push(Entry::new(
                        0,
                        Rid::new(all[0].0 as u32, all[0].1 as u16).pack(),
                    ));
                }
                entries.sort();
                let start_idx = rng.bounded_u64(entries.len() as u64) as usize;
                reached.wrapped_rid += (start_idx > 0) as u32;
                let order: Vec<(usize, usize)> = (0..entries.len())
                    .map(|i| Rid::unpack(entries[(start_idx + i) % entries.len()].payload))
                    .map(|rid| (rid.page as usize, rid.slot as usize))
                    .collect();
                let revisits = order.windows(3).any(|w| w[1].0 < w[0].0 && w[2].0 > w[1].0);
                reached.rid_page_revisited_out_of_order += revisits as u32;
                let plan = Plan {
                    start: start_idx,
                    ..Plan::new(Walk::all_rids(entries))
                };
                (plan, order)
            } else {
                let start_page = match n_pages {
                    0 => 0,
                    n => rng.bounded_u64(n as u64) as usize,
                };
                reached.wrapped_table += (start_page > 0) as u32;
                let order = (start_page..n_pages)
                    .chain(0..start_page)
                    .flat_map(|p| (0..pages[p].len()).map(move |r| (p, r)))
                    .collect();
                let plan = Plan {
                    start: start_page,
                    ..Plan::new(Walk::Pages(n_pages as u32))
                };
                (plan, order)
            };
            for rows in &pages {
                reached.empty_pages += rows.is_empty() as u32;
                reached.slotted_pages += rows.iter().any(|r| r.len() != s.row_width()) as u32;
            }

            // The kernel: one cursor feeding every consumer of the case
            // through one lent scratch, as a push driver does.
            let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
            let mut world = ExecWorld::new(&store, pool, EngineConfig::default(), None);
            let mut cursor = Cursor::new(file, plan);
            let mut scratch = StepScratch::default();
            let mut consumers: Vec<Consumer> = specs
                .iter()
                .map(|sp| Consumer::new(sp, &s, SimTime::ZERO).unwrap())
                .collect();
            let fan_out: Vec<usize> = (0..consumers.len()).collect();
            let mut now = SimTime::ZERO;
            while !cursor.plan.done() {
                match step_extent(
                    &mut world,
                    now,
                    &mut cursor,
                    &mut scratch,
                    &mut consumers,
                    &fan_out,
                    false,
                )
                .unwrap()
                {
                    Step::Delivered { next, .. } => now = next,
                    Step::Faulted(_) => panic!("no fault plan"),
                }
            }

            let row = |&(p, r): &(usize, usize)| RowRef {
                bytes: &pages[p][r],
                schema: &s,
            };
            for (sp, c) in specs.iter().zip(&consumers) {
                let mut want = Naive::default();
                for at in &order {
                    let before = want.groups.len();
                    want.fold(sp, &row(at));
                    let ninth = before == 8 && want.groups.len() == 9 && at.1 > 0;
                    reached.ninth_group_mid_page += ninth as u32;
                }
                let got = c.result();
                if rid_plan {
                    assert_same(case, sp, &got, &want);
                } else {
                    // A whole-page step adds a subtotal a page; the
                    // row-at-a-time fold it replaced is a bound away.
                    let mut by_page = Naive::default();
                    for page in order.chunk_by(|a, b| a.0 == b.0) {
                        by_page.fold_page(sp, page.iter().map(row));
                        let keys = page.iter().filter(|at| sp.pred.eval(&row(at)));
                        let keys: BTreeSet<i64> =
                            keys.map(|at| sp.agg.group_key(&row(at))).collect();
                        reached.pages_over_8_groups += (keys.len() > 8) as u32;
                    }
                    assert_same(case, sp, &got, &by_page);
                    reached.sums_moved += assert_near(case, sp, &got, &want) as u32;
                }
                reached.empty_result += (got.count == 0 && !order.is_empty()) as u32;
                reached.sums_over_8 += (sp.agg.sum_cols.len() > 8 && got.count > 0) as u32;
                reached.groups_17_to_300 += (17..=300).contains(&got.groups.len()) as u32;
                reached.groups_over_300 += (got.groups.len() > 300) as u32;
                let (n_sums, n_keys) = (sp.agg.sum_cols.len(), sp.agg.group_by.len());
                let grouped = n_keys > 0 && got.count > 0;
                reached.grouped_no_sums += (grouped && n_sums == 0) as u32;
                reached.grouped_over_8_sums += (grouped && n_sums > 8) as u32;
                reached.one_column_keys += (grouped && n_keys == 1) as u32;
                reached.three_column_keys += (grouped && n_keys == 3) as u32;
            }
        }
        let r = &reached;
        for (what, n) in [
            ("table scans that wrap", r.wrapped_table),
            ("RID scans that wrap", r.wrapped_rid),
            (
                "RID batches revisiting pages out of order",
                r.rid_page_revisited_out_of_order,
            ),
            ("slotted-fallback pages", r.slotted_pages),
            ("empty pages", r.empty_pages),
            ("predicates nothing passes", r.empty_result),
            ("more than 8 sum columns", r.sums_over_8),
            ("17..=300 groups", r.groups_17_to_300),
            ("more than 300 groups", r.groups_over_300),
            ("pages of more than 8 groups", r.pages_over_8_groups),
            ("sums the page subtotals moved", r.sums_moved),
        ] {
            assert!(n >= 5, "only {n} cases reached: {what}");
        }
        // Group shapes the grouped fold meets.
        for (what, n) in [
            (
                "a ninth group met past a page's first row",
                r.ninth_group_mid_page,
            ),
            ("grouped folds without sums", r.grouped_no_sums),
            ("grouped folds of more than 8 sums", r.grouped_over_8_sums),
            ("one-column group keys", r.one_column_keys),
            ("three-column group keys", r.three_column_keys),
        ] {
            assert!(n >= 1, "no case reached: {what}");
        }
    }

    /// Riders of one pipeline add the same page subtotals. K = 1..=9
    /// consumers of one spec first fold *different* seeded rows on their
    /// own — a RID replay each, so they ride with different running totals
    /// and have met the groups in different orders — then ride one cursor
    /// over the same pages: with a memo each page is folded once for all
    /// of them, without one once for each. The reference is
    /// consumer-at-a-time: one naive fold per consumer over its own rows,
    /// row by row, then over the shared pages, page by page.
    #[test]
    fn riders_of_one_pipeline_match_consumer_at_a_time_folds_bit_for_bit() {
        #[derive(Default)]
        struct Reached {
            riders_over_8_sums: u32,
            riders_no_sums: u32,
            grouped_over_4_riders: u32,
            riders_ungrouped: u32,
            riders_with_leaves: u32,
            riders_without_leaves: u32,
            riders_over_slotted_pages: u32,
            riders_with_a_memo: u32,
            newcomer_mid_page_in_some_riders_only: u32,
            a_stranger_between_riders: u32,
            riders_on_both_sides_of_8_groups: u32,
            riders_past_8_groups_in_the_lap: u32,
        }
        let s = schema();
        let mut reached = Reached::default();
        for case in 0..360u64 {
            let mut rng = Rng::seed_from_u64(0xF05E_D000 + case);
            let k = 1 + (case % 9) as usize;
            let alphabet = *rng.choose(&[2, 3, 5, 7, 16]).unwrap();
            let n_groups = rng.bounded_u64(4) as usize;
            let n_pages = rng.random_range(4..24usize);
            let (store, file, pages) = build_file(&mut rng, &s, n_pages, alphabet, case % 8 == 5);
            let all: Vec<(usize, usize)> = pages
                .iter()
                .enumerate()
                .flat_map(|(p, rows)| (0..rows.len()).map(move |r| (p, r)))
                .collect();
            if all.is_empty() {
                continue;
            }
            // The riders' spec, and in some cases a stranger with another
            // one seated between them: it must not disturb theirs.
            let rider = spec(&mut rng, alphabet, n_groups, false);
            let mut specs = vec![rider.clone(); k];
            let mut riders: Vec<usize> = (0..k).collect();
            if case % 4 == 1 {
                let at = rng.bounded_u64(k as u64 + 1) as usize;
                specs.insert(at, spec(&mut rng, alphabet, n_groups, false));
                riders = (0..=k).filter(|&ci| ci != at).collect();
                reached.a_stranger_between_riders += (0 < at && at < k) as u32;
            }
            let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
            let mut world = ExecWorld::new(&store, pool, EngineConfig::default(), None);
            let memo = case % 2 == 0;
            if memo {
                world.memo = Some(PageMemo::default());
            }
            let mut scratch = StepScratch::default();
            let mut consumers: Vec<Consumer> = specs
                .iter()
                .map(|sp| Consumer::new(sp, &s, SimTime::ZERO).unwrap())
                .collect();
            let mut want: Vec<Naive> = specs.iter().map(|_| Naive::default()).collect();
            let row_ref = |&(p, r): &(usize, usize)| RowRef {
                bytes: &pages[p][r],
                schema: &s,
            };
            let run = |world: &mut ExecWorld<'_>,
                       scratch: &mut StepScratch,
                       consumers: &mut [Consumer],
                       plan: Plan,
                       order: &[usize]| {
                let mut cursor = Cursor::new(file, plan);
                let mut now = SimTime::ZERO;
                while !cursor.plan.done() {
                    match step_extent(world, now, &mut cursor, scratch, consumers, order, false)
                        .unwrap()
                    {
                        Step::Delivered { next, .. } => now = next,
                        Step::Faulted(_) => panic!("no fault plan"),
                    }
                }
            };

            // Each consumer's own rows: a seeded sample, in a seeded order.
            for ci in 0..specs.len() {
                let own: Vec<(usize, usize)> = (0..rng.bounded_u64(200))
                    .map(|_| *rng.choose(&all).unwrap())
                    .collect();
                if own.is_empty() {
                    continue;
                }
                let entries = own
                    .iter()
                    .enumerate()
                    .map(|(i, &(p, r))| Entry::new(i as i64, Rid::new(p as u32, r as u16).pack()))
                    .collect::<Vec<_>>();
                let plan = Plan::new(Walk::all_rids(entries));
                run(&mut world, &mut scratch, &mut consumers, plan, &[ci]);
                own.iter()
                    .for_each(|at| want[ci].fold(&specs[ci], &row_ref(at)));
            }

            // A group some riders have met and others have not, arriving
            // past the first row of a page of the shared lap.
            let start_page = rng.bounded_u64(n_pages as u64) as usize;
            let lap: Vec<(usize, usize)> = (start_page..n_pages)
                .chain(0..start_page)
                .flat_map(|p| (0..pages[p].len()).map(move |r| (p, r)))
                .collect();
            if !rider.agg.group_by.is_empty() {
                let mut met_in_lap = std::collections::BTreeSet::new();
                let split = lap.iter().any(|at| {
                    let row = row_ref(at);
                    let key = rider.agg.group_key(&row);
                    if !rider.pred.eval(&row) || !met_in_lap.insert(key) {
                        return false;
                    }
                    let knows = |ci: &usize| want[*ci].groups.contains_key(&key);
                    at.1 > 0 && riders.iter().any(knows) && !riders.iter().all(knows)
                });
                reached.newcomer_mid_page_in_some_riders_only += split as u32;
            }

            let sizes = riders.iter().map(|&ci| want[ci].groups.len());
            let both = sizes.clone().any(|n| n <= 8) && sizes.clone().any(|n| n > 8);
            reached.riders_on_both_sides_of_8_groups += both as u32;

            // The shared lap, owner somewhere in the middle of the seats.
            let mut order: Vec<usize> = (0..specs.len()).collect();
            order.rotate_left(rng.bounded_u64(specs.len() as u64) as usize);
            let plan = Plan {
                start: start_page,
                ..Plan::new(Walk::Pages(n_pages as u32))
            };
            let folds = page_folds();
            run(&mut world, &mut scratch, &mut consumers, plan, &order);
            // With a memo every page is folded once a pipeline, riders
            // and all; without one, once a consumer.
            let pipes = consumers.iter().map(|c| &c.pipeline);
            let strangers = pipes
                .filter(|&p| *p != consumers[riders[0]].pipeline)
                .count();
            let folders = match memo {
                true => 1 + strangers.min(1),
                false => specs.len(),
            };
            let want_folds = (n_pages * folders) as u64;
            assert_eq!(page_folds() - folds, want_folds, "case {case}");
            let before: Vec<usize> = want.iter().map(|w| w.groups.len()).collect();
            for ci in 0..specs.len() {
                for page in lap.chunk_by(|a, b| a.0 == b.0) {
                    want[ci].fold_page(&specs[ci], page.iter().map(row_ref));
                }
                assert_same(case, &specs[ci], &consumers[ci].result(), &want[ci]);
            }
            let past = |&ci: &usize| before[ci] <= 8 && want[ci].groups.len() > 8;
            reached.riders_past_8_groups_in_the_lap += (k > 1 && riders.iter().any(past)) as u32;

            if k > 1 {
                let (n_sums, grouped) = (rider.agg.sum_cols.len(), !rider.agg.group_by.is_empty());
                let rows = want[riders[0]].count > 0;
                reached.riders_over_8_sums += (n_sums > 8 && rows) as u32;
                reached.riders_no_sums += (n_sums == 0 && rows) as u32;
                reached.grouped_over_4_riders += (grouped && k > 4 && rows) as u32;
                reached.riders_ungrouped += (!grouped && rows) as u32;
                reached.riders_with_leaves += (rider.pred != Pred::True && rows) as u32;
                reached.riders_without_leaves += (rider.pred == Pred::True) as u32;
                reached.riders_over_slotted_pages +=
                    pages.iter().flatten().any(|r| r.len() != s.row_width()) as u32;
                reached.riders_with_a_memo += (memo && rows) as u32;
            }
        }
        let r = &reached;
        for (what, n) in [
            ("riders with more than 8 sum columns", r.riders_over_8_sums),
            ("riders that only count", r.riders_no_sums),
            ("more than 4 grouped riders", r.grouped_over_4_riders),
            ("ungrouped riders", r.riders_ungrouped),
            ("riders with a predicate", r.riders_with_leaves),
            ("riders without a predicate", r.riders_without_leaves),
            (
                "riders over slotted-fallback pages",
                r.riders_over_slotted_pages,
            ),
            ("riders sharing a memo", r.riders_with_a_memo),
            (
                "a group new to some riders only, mid-page",
                r.newcomer_mid_page_in_some_riders_only,
            ),
            (
                "a stranger seated between riders",
                r.a_stranger_between_riders,
            ),
        ] {
            assert!(n >= 5, "only {n} cases reached: {what}");
        }
        let both = r.riders_on_both_sides_of_8_groups;
        assert!(both >= 1, "no riders on both sides of 8 groups");
        let past = r.riders_past_8_groups_in_the_lap;
        assert!(past >= 1, "no riders past 8 groups in the lap");
    }

    /// A Q1-shaped spec over the oracle schema: no predicate, four sums
    /// grouped by two chars.
    fn q1_shape() -> ScanSpec {
        ScanSpec {
            pred: Pred::True,
            agg: AggSpec::grouped_sums((F0..F0 + 4).collect(), vec![C0, C0 + 1]),
            cpu: CpuClass::cpu_bound(),
            ..spec(&mut Rng::seed_from_u64(1), 1, 0, false)
        }
    }

    /// The run's memo at work: 8 staggered Q1-shaped queries over one
    /// table fold each of its pages once, in the base mode (each scan from
    /// the first page) and sharing (scans placed mid-range, wrapping) —
    /// and every answer is the one a fold of its own pages gives: in base,
    /// the naive page-at-a-time fold bit for bit, and under sharing, which
    /// visits the pages in another order, the row-at-a-time fold within
    /// the summation-order bound.
    #[test]
    fn a_run_of_staggered_scans_folds_each_page_once() {
        use crate::query::Query;
        use crate::workload::{run_workload, SharingMode, Stream, WorkloadSpec};
        let s = schema();
        let mut rng = Rng::seed_from_u64(0x0_9E40);
        let rows: Vec<Vec<Value>> = (0..6_000)
            .map(|_| {
                let mut vals = vec![Value::I32(0), Value::I32(0)];
                vals.extend((0..N_F64).map(|_| Value::F64(float(&mut rng, false))));
                let flags = [
                    b"ANR"[rng.bounded_u64(3) as usize],
                    b"FO"[rng.bounded_u64(2) as usize],
                ];
                vals.extend(flags.into_iter().chain([b'x']).map(Value::Ch));
                vals
            })
            .collect();
        let mut db = Database::new(16);
        db.create_heap_table("t", s.clone(), rows).unwrap();
        let table = db.table("t").unwrap();
        let (file, n_pages) = (table.file(), table.num_pages());
        let pages: Vec<Vec<Vec<u8>>> = (0..n_pages)
            .map(|p| {
                let buf = db.store().read_page(PageId::new(file, p)).unwrap();
                let page = HeapPage::new(&buf).unwrap();
                (0..page.num_rows())
                    .map(|r| page.row_bytes(r).unwrap().to_vec())
                    .collect()
            })
            .collect();
        let spec = q1_shape();
        let row = |bytes| RowRef { bytes, schema: &s };
        let (mut by_page, mut by_row) = (Naive::default(), Naive::default());
        for page in &pages {
            by_page.fold_page(&spec, page.iter().map(|r| row(r)));
            page.iter().for_each(|r| by_row.fold(&spec, &row(r)));
        }
        assert!(n_pages >= 40 && by_page.groups.len() == 6);
        for mode in [
            SharingMode::Base,
            SharingMode::ScanSharing(scanshare::SharingConfig::new(0)),
        ] {
            let workload = WorkloadSpec {
                streams: (0..8)
                    .map(|i| Stream {
                        queries: vec![Query::single("Q1", spec.clone())],
                        start_offset: SimDuration::from_millis(3 * i),
                    })
                    .collect(),
                pool_pages: n_pages as usize + 64,
                engine: EngineConfig::default(),
                mode: mode.clone(),
                faults: Default::default(),
                slo: Default::default(),
            };
            let folds = page_folds();
            let report = run_workload(&db, &workload).unwrap();
            assert_eq!(page_folds() - folds, n_pages as u64, "{mode:?}");
            assert_eq!(report.queries.len(), 8);
            for q in &report.queries {
                match mode {
                    SharingMode::Base => assert_same(0, &spec, &q.result, &by_page),
                    _ => _ = assert_near(0, &spec, &q.result, &by_row),
                }
            }
            let shared = matches!(mode, SharingMode::ScanSharing(_));
            assert!(
                !shared || report.sharing.scans_joined > 0,
                "nobody joined mid-range"
            );
        }
    }

    /// A kept subtotal stands for the bytes it was folded from: a visit
    /// to the same page id whose frame holds other bytes — here a memo
    /// carried to a store whose one page differs — folds the page again
    /// and answers from those bytes, while a visit to the first bytes
    /// still adds the kept subtotal.
    #[test]
    fn a_kept_subtotal_of_other_bytes_is_folded_again() {
        let s = schema();
        let spec = q1_shape();
        let one_page = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let mut b = HeapPageBuilder::new();
            let mut rows = Vec::new();
            for _ in 0..60 {
                let mut vals = vec![Value::I32(0), Value::I32(0)];
                vals.extend((0..N_F64).map(|_| Value::F64(float(&mut rng, false))));
                vals.extend([b'A' + rng.bounded_u64(3) as u8, b'F', b'x'].map(Value::Ch));
                let mut row = vec![0; s.row_width()];
                s.encode_row(&vals, &mut row);
                b.push(&row).expect("row fits");
                rows.push(row);
            }
            let mut store = FileStore::new(16);
            let file = store.create_file();
            store.append_page(file, b.finish()).unwrap();
            let mut want = Naive::default();
            want.fold_page(&spec, rows.iter().map(|bytes| RowRef { bytes, schema: &s }));
            (store, file, want)
        };
        let (a, file, want_a) = one_page(1);
        let (b, file_b, want_b) = one_page(2);
        assert_eq!(file, file_b);
        assert_ne!(bits(&want_a.sums), bits(&want_b.sums));
        // One scan over the page in `world`: its answer, and whether the
        // page was folded.
        let scan = |world: &mut ExecWorld<'_>| {
            let mut consumers = [Consumer::new(&spec, &s, SimTime::ZERO).unwrap()];
            let mut cursor = Cursor::new(file, Plan::new(Walk::Pages(1)));
            let mut scratch = StepScratch::default();
            let folds = page_folds();
            step_extent(
                world,
                SimTime::ZERO,
                &mut cursor,
                &mut scratch,
                &mut consumers,
                &[0],
                false,
            )
            .unwrap();
            (consumers[0].result(), page_folds() - folds)
        };
        let world = |store| {
            let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
            ExecWorld::new(store, pool, EngineConfig::default(), None)
        };
        let mut on_a = world(&a);
        on_a.memo = Some(PageMemo::default());
        for folded in [1, 0] {
            let (got, folds) = scan(&mut on_a);
            assert_same(1, &spec, &got, &want_a);
            assert_eq!(folds, folded);
        }
        let mut on_b = world(&b);
        on_b.memo = on_a.memo.take();
        for _ in 0..2 {
            let (got, folds) = scan(&mut on_b);
            assert_same(2, &spec, &got, &want_b);
            assert_eq!(folds, 1);
        }
        let mut on_a = world(&a);
        on_a.memo = on_b.memo.take();
        let (got, folds) = scan(&mut on_a);
        assert_same(3, &spec, &got, &want_a);
        assert_eq!(folds, 0);
    }

    /// The grouped fold of riders of one pipeline, pinned: K = 1..=4
    /// states of one pipeline × N ∈ {0, 1, 4, 8, 9} sums × one, two and
    /// three group columns. Each state first folds rows of its own, one at
    /// a time, so that the riders know different groups: in the shared
    /// lap, a page subtotal brings a group new to one state only, arriving
    /// mid-page, and the next page's ninth group arrives mid-page too.
    /// Summands include ±0.0, NaN and ±inf.
    /// Every answer must equal the naive fold's, and all of them together
    /// hash to what the first commit of page subtotals computed.
    #[test]
    fn grouped_fold_of_a_class_is_pinned_bit_for_bit() {
        const PINNED: u64 = 0x8b0d_6d0c_e529_b74a;
        /// Rows a page, and the pages of the shared lap; the page after
        /// them holds the rows the states fold on their own.
        const ROWS: usize = 80;
        const LAP: u32 = 3;
        let s = schema();
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut hash = |word: u64| {
            for byte in word.to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x100_0000_01B3);
            }
        };
        let mut rng = Rng::seed_from_u64(0x6E0_F01D);
        // A row of group `gid` (0..12): each char column is a function of
        // the gid, so one, two or three columns tell the same groups apart.
        let row = |gid: u8, at: usize, rng: &mut Rng| {
            let f = |j: usize, rng: &mut Rng| match (j, at) {
                (1, _) if at % 97 == 13 => f64::NAN,
                (2, _) if at % 89 == 7 => f64::INFINITY,
                (2, _) if at % 83 == 5 => f64::NEG_INFINITY,
                (3, _) => [-0.0, 0.0, -0.0][at % 3],
                _ => float(rng, false),
            };
            let mut vals = vec![Value::I32(0), Value::I32(at as i32)];
            vals.extend((0..N_F64).map(|j| Value::F64(f(j, rng))));
            vals.extend([b'A' + gid, b'a' + gid % 2, b'0' + gid % 3].map(Value::Ch));
            let mut buf = vec![0; s.row_width()];
            s.encode_row(&vals, &mut buf);
            buf
        };
        // The lap: groups every state knows first; then, mid-page, group
        // 1 (which state 1 lacks); then, mid-page, group 8, the ninth of
        // state 0; then twelve groups. The last page: the states' own
        // rows, groups 0..8, a run of each.
        let known = [0, 4, 5, 6, 7];
        let gid = |p: usize, r: usize, rng: &mut Rng| match (p, r) {
            (0, 0..40) => known[rng.bounded_u64(5) as usize],
            (0, 40) => 1,
            (0, _) | (1, 0..20) => rng.bounded_u64(8) as u8,
            (1, 20) => 8,
            (3, _) => (r / 10) as u8,
            _ => rng.bounded_u64(12) as u8,
        };
        let mut pages: Vec<Vec<(u8, Vec<u8>)>> = Vec::new();
        for p in 0..=LAP as usize {
            let rows = (0..ROWS).map(|r| {
                let g = gid(p, r, &mut rng);
                (g, row(g, p * ROWS + r, &mut rng))
            });
            pages.push(rows.collect());
        }
        let mut store = FileStore::new(16);
        let file = store.create_file();
        for rows in &pages {
            let mut b = HeapPageBuilder::new();
            for (_, row) in rows {
                b.push(row).expect("row fits");
            }
            store.append_page(file, b.finish()).unwrap();
        }

        for (k, n_sums, n_keys) in (1..=4usize)
            .flat_map(|k| [0, 1, 4, 8, 9].map(|n| (k, n)))
            .flat_map(|(k, n)| [1, 2, 3].map(|c| (k, n, c)))
        {
            let spec = ScanSpec {
                table: "t".into(),
                access: Access::FullTable,
                pred: Pred::True,
                agg: AggSpec::grouped_sums(
                    (0..n_sums).map(|i| F0 + i % N_F64).collect(),
                    (C0..C0 + n_keys).collect(),
                ),
                cpu: CpuClass::io_bound(),
                require_order: false,
                query_priority: Default::default(),
                repeat: 1,
            };
            let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
            let mut world = ExecWorld::new(&store, pool, EngineConfig::default(), None);
            let mut scratch = StepScratch::default();
            let mut consumers: Vec<Consumer> = (0..k)
                .map(|_| Consumer::new(&spec, &s, SimTime::ZERO).unwrap())
                .collect();
            let mut want: Vec<Naive> = (0..k).map(|_| Naive::default()).collect();
            let mut run = |consumers: &mut [Consumer], plan: Plan, order: &[usize]| {
                let mut cursor = Cursor::new(file, plan);
                while !cursor.plan.done() {
                    let step = step_extent(
                        &mut world,
                        SimTime::ZERO,
                        &mut cursor,
                        &mut scratch,
                        consumers,
                        order,
                        false,
                    );
                    assert!(matches!(step, Ok(Step::Delivered { .. })));
                }
            };
            let fold = |want: &mut Naive, p: usize, r: usize| {
                let bytes = &pages[p][r].1;
                want.fold(&spec, &RowRef { bytes, schema: &s });
            };
            // State 0 knows groups 0..8; state i > 0 all of them but i.
            for (ci, want) in want.iter_mut().enumerate() {
                let own = (0..ROWS).filter(|&r| ci == 0 || pages[LAP as usize][r].0 != ci as u8);
                let rids = own.map(|r| {
                    fold(want, LAP as usize, r);
                    Entry::new(r as i64, Rid::new(LAP, r as u16).pack())
                });
                run(
                    &mut consumers,
                    Plan::new(Walk::all_rids(rids.collect())),
                    &[ci],
                );
                assert_eq!(want.groups.len(), if ci == 0 { 8 } else { 7 });
            }
            let riders: Vec<usize> = (0..k).collect();
            run(&mut consumers, Plan::new(Walk::Pages(LAP)), &riders);
            for (c, want) in consumers.iter().zip(&mut want) {
                for page in &pages[..LAP as usize] {
                    let rows = page.iter().map(|(_, bytes)| RowRef { bytes, schema: &s });
                    want.fold_page(&spec, rows);
                }
                let got = c.result();
                assert_same(0, &spec, &got, want);
                assert_eq!(got.groups.len(), 12);
                hash(got.count);
                got.sums.iter().for_each(|x| hash(x.to_bits()));
                for (key, g) in &got.groups {
                    hash(*key as u64);
                    hash(g.count);
                    g.sums.iter().for_each(|x| hash(x.to_bits()));
                }
            }
        }
        assert_eq!(digest, PINNED, "digest {digest:#018x}");
    }
}
