//! Scan operators: plain and sharing table scans, IXSCAN and SISCAN.
//!
//! A scan is two halves. A `Cursor` decides which extent comes next (a
//! 16-page run for table scans, one MDC block for index scans) and a
//! `Consumer` folds the rows of whatever pages it is handed into one
//! query's aggregate. `step_extent` is the one place they meet: gather
//! an extent, fetch and fix it once, run each distinct row pipeline once
//! over the fixed pages for all the consumers that share it, charge
//! every consumer its CPU share, make the paper's per-extent manager
//! call (location update in, throttle wait and release priority out),
//! release, advance, read ahead.
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

use scanshare::{Location, ObjectId, ScanDesc, ScanId, ScanKind};
use scanshare_relstore::{ColType, Entry, HeapPage, Rid, Schema};
use scanshare_storage::{
    BufferPool, FileId, PageId, PagePriority, SimDuration, SimTime, StorageError,
};

use crate::cost::{CpuClass, EngineConfig};
use crate::db::Database;
use crate::error::{EngineError, EngineResult};
use crate::exec::ExecWorld;
use crate::query::{Access, AggSpec, Pred, QueryResult, ScanSpec};

/// Scan progress plan: where a [`Cursor`] is in its range, advanced one
/// extent per [`Plan::gather`]/[`Plan::advance`] pair.
#[derive(Debug)]
pub(crate) enum Plan {
    /// Circular walk over all table pages, starting at `start_page`.
    Table {
        num_pages: u32,
        start_page: u32,
        /// Pages processed so far.
        visited: u32,
    },
    /// Walk over the `(cell key, BID)` entries of a block index range,
    /// one block per step, starting at `start_idx`.
    Index {
        entries: Vec<Entry>,
        block_pages: u32,
        start_idx: usize,
        /// Entries processed so far.
        visited: usize,
    },
    /// Walk over the `(key, RID)` entries of a secondary index, fetching
    /// each row's page; one extent's worth of *distinct pages* per step.
    /// The pages behind consecutive keys are scattered (§3.2), so this
    /// plan seeks heavily when cold.
    Rid {
        entries: Vec<Entry>,
        start_idx: usize,
        /// Entries processed so far.
        visited: usize,
    },
}

impl Plan {
    /// Whether the cursor has covered its whole range.
    pub(crate) fn done(&self) -> bool {
        match self {
            Plan::Table {
                num_pages, visited, ..
            } => *visited >= *num_pages,
            Plan::Index {
                entries, visited, ..
            } => *visited >= entries.len(),
            Plan::Rid {
                entries, visited, ..
            } => *visited >= entries.len(),
        }
    }

    /// Apply a placement decision: start at the joined location `loc`,
    /// backed up by `back_up_pages` (the joined scan's leftovers in the
    /// pool), instead of at the range start.
    fn start_at(&mut self, loc: Location, back_up_pages: u64) {
        let (entries, start_idx, pages_per_entry) = match self {
            Plan::Table {
                num_pages,
                start_page,
                ..
            } => {
                let at = (loc.pos as u32).min(num_pages.saturating_sub(1));
                *start_page = at.saturating_sub(back_up_pages as u32);
                return;
            }
            Plan::Index {
                entries,
                block_pages,
                start_idx,
                ..
            } => (entries, start_idx, *block_pages as u64),
            // ~1 page per entry: back up one entry per page.
            Plan::Rid {
                entries, start_idx, ..
            } => (entries, start_idx, 1),
        };
        // Find the exact joined entry; fall back to the first entry at
        // or after the joined key; then back up by the hinted number of
        // pages.
        let at = entries
            .iter()
            .position(|e| e.key == loc.key && e.payload == loc.pos)
            .or_else(|| entries.iter().position(|e| e.key >= loc.key))
            .unwrap_or(0);
        *start_idx = at.saturating_sub((back_up_pages / pages_per_entry) as usize);
    }

    /// Mark the whole range consumed, so `done()` holds: how a scan
    /// that died to a fault finishes early.
    fn finish(&mut self) {
        match self {
            Plan::Table {
                num_pages, visited, ..
            } => *visited = *num_pages,
            Plan::Index {
                entries, visited, ..
            }
            | Plan::Rid {
                entries, visited, ..
            } => *visited = entries.len(),
        }
    }

    /// The location of the range start — where a cursor that was placed
    /// mid-range is once its first phase ends and it wraps.
    fn range_start(&self) -> Location {
        match self {
            Plan::Table { .. } => Location::new(0, 0),
            Plan::Index { entries, .. } | Plan::Rid { entries, .. } => {
                Location::new(entries[0].key, entries[0].payload)
            }
        }
    }

    /// Gather the next extent's pages into `ids` (and, for RID plans, the
    /// `(page, slot)` work list into `rids`). Returns what to evaluate,
    /// the location to report afterwards, the units consumed, and
    /// whether the step ends the first phase (the cursor wraps after
    /// it).
    fn gather(
        &self,
        file: FileId,
        extent_pages: u32,
        ids: &mut Vec<PageId>,
        rids: &mut Vec<(PageId, u16)>,
    ) -> (StepWork, Location, u64, bool) {
        match self {
            Plan::Table {
                num_pages,
                start_page,
                visited,
            } => {
                let cur = (start_page + visited) % num_pages;
                // Do not cross the wrap boundary within one extent.
                let chunk = extent_pages.min(num_pages - cur).min(num_pages - visited);
                ids.extend((cur..cur + chunk).map(|p| PageId::new(file, p)));
                let last = cur + chunk - 1;
                let wraps = cur + chunk == *num_pages && visited + chunk < *num_pages;
                (
                    StepWork::AllRows,
                    Location::new(last as i64, last as u64),
                    chunk as u64,
                    wraps,
                )
            }
            Plan::Index {
                entries,
                block_pages,
                start_idx,
                visited,
            } => {
                let idx = (start_idx + visited) % entries.len();
                let e = entries[idx];
                let first_page = e.payload as u32 * block_pages;
                ids.extend((first_page..first_page + block_pages).map(|p| PageId::new(file, p)));
                let wraps = idx + 1 == entries.len() && visited + 1 < entries.len();
                (
                    StepWork::AllRows,
                    Location::new(e.key, e.payload),
                    1u64,
                    wraps,
                )
            }
            Plan::Rid {
                entries,
                start_idx,
                visited,
            } => {
                // Consume entries until the chunk spans one extent's
                // worth of distinct pages. The candidates are one slice:
                // up to the range's end (a chunk never crosses the wrap
                // boundary), the entries still unvisited, or the cap.
                let len = entries.len();
                let extent = extent_pages as usize;
                let pos = (start_idx + visited) % len;
                let chunk = &entries[pos..len.min(pos + (len - visited).min(extent * 32))];
                let mut taken = 0usize;
                let mut prev = None;
                for e in chunk {
                    let rid = Rid::unpack(e.payload);
                    let pid = PageId::new(file, rid.page);
                    // Consecutive keys mostly share a page: compare with
                    // the previous RID's before searching the extent's.
                    if prev != Some(pid) && !ids.contains(&pid) {
                        if ids.len() == extent {
                            break;
                        }
                        ids.push(pid);
                    }
                    prev = Some(pid);
                    rids.push((pid, rid.slot));
                    taken += 1;
                }
                let last = entries[pos + taken.saturating_sub(1)];
                let wraps = pos + taken == len && visited + taken < len;
                (
                    StepWork::Rids {
                        distinct_pages: ids.len() as u64,
                    },
                    Location::new(last.key, last.payload),
                    taken as u64,
                    wraps,
                )
            }
        }
    }

    /// How many pages a gathered step advances the scan's location by
    /// (what `update_location` reports to the sharing manager).
    fn pages_advanced(&self, work: StepWork, units: u64) -> u64 {
        match (self, work) {
            (Plan::Table { .. }, _) => units,
            (Plan::Index { block_pages, .. }, _) => units * *block_pages as u64,
            (Plan::Rid { .. }, StepWork::Rids { distinct_pages }) => distinct_pages,
            (Plan::Rid { .. }, _) => unreachable!("RID plans produce RID work"),
        }
    }

    /// Consume the units a [`Plan::gather`] returned.
    fn advance(&mut self, units: u64) {
        match self {
            Plan::Table { visited, .. } => *visited += units as u32,
            Plan::Index { visited, .. } | Plan::Rid { visited, .. } => *visited += units as usize,
        }
    }

    /// Total pages the whole range covers (RID plans estimate one page
    /// per entry).
    pub(crate) fn total_pages(&self) -> u64 {
        match self {
            Plan::Table { num_pages, .. } => *num_pages as u64,
            Plan::Index {
                entries,
                block_pages,
                ..
            } => entries.len() as u64 * *block_pages as u64,
            Plan::Rid { entries, .. } => entries.len() as u64,
        }
    }

    /// Pages the cursor has covered so far.
    pub(crate) fn visited_pages(&self) -> u64 {
        match self {
            Plan::Table { visited, .. } => *visited as u64,
            Plan::Index {
                visited,
                block_pages,
                ..
            } => *visited as u64 * *block_pages as u64,
            Plan::Rid { visited, .. } => *visited as u64,
        }
    }

    /// A fresh cursor over exactly the already-visited prefix, from the
    /// range start — the private catch-up lap a push consumer runs after
    /// joining a driver mid-range. Only meaningful for cursors that
    /// started at the range start (push drivers always do).
    pub(crate) fn prefix(&self) -> Plan {
        match self {
            Plan::Table { visited, .. } => Plan::Table {
                num_pages: *visited,
                start_page: 0,
                visited: 0,
            },
            Plan::Index {
                entries,
                block_pages,
                visited,
                ..
            } => Plan::Index {
                entries: entries[..*visited].to_vec(),
                block_pages: *block_pages,
                start_idx: 0,
                visited: 0,
            },
            Plan::Rid {
                entries, visited, ..
            } => Plan::Rid {
                entries: entries[..*visited].to_vec(),
                start_idx: 0,
                visited: 0,
            },
        }
    }

    /// The pages the *next* step will touch (table and block index
    /// plans; RID chunks are not predicted), appended to `out`. Used for
    /// prefetching.
    fn peek_next_pages(&self, file: FileId, extent_pages: u32, out: &mut Vec<PageId>) {
        match self {
            Plan::Table {
                num_pages,
                start_page,
                visited,
            } => {
                if visited >= num_pages {
                    return;
                }
                let cur = (start_page + visited) % num_pages;
                let chunk = extent_pages.min(num_pages - cur).min(num_pages - visited);
                out.extend((cur..cur + chunk).map(|p| PageId::new(file, p)));
            }
            Plan::Index {
                entries,
                block_pages,
                start_idx,
                visited,
            } => {
                if *visited >= entries.len() {
                    return;
                }
                let e = entries[(start_idx + visited) % entries.len()];
                let first = e.payload as u32 * block_pages;
                out.extend((first..first + block_pages).map(|p| PageId::new(file, p)));
            }
            Plan::Rid { .. } => {}
        }
    }
}

/// What a step evaluates on its fetched pages.
#[derive(Clone, Copy)]
pub(crate) enum StepWork {
    /// Every row of every fetched page (table and block index scans).
    AllRows,
    /// Exactly the `(page, slot)` rows gathered into the step scratch,
    /// touching this many distinct pages (RID index scans).
    Rids { distinct_pages: u64 },
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
    /// RID work list for [`Plan::Rid`] chunks.
    rids: Vec<(PageId, u16)>,
    /// Fetched `(page, pool slot)` pairs, sorted by page id.
    pages: Vec<(PageId, u32)>,
    /// Predicted next-extent pages handed to the prefetcher.
    prefetch: Vec<PageId>,
    /// Fault events drained from the world after each fetch.
    faults: Vec<crate::faults::FaultEvent>,
    /// The row kernel's selection vector: indexes of the rows of the
    /// region being folded that passed the predicate so far. Every
    /// consumer of a step selects into this one buffer, and the consumers
    /// of one class share the selection itself: it is made once a page.
    sel: Vec<u32>,
    /// The rows of a page that is not fixed-width (all of them, or the
    /// ones a run of RIDs names), copied side by side so the kernel sees
    /// one dense region.
    gathered: Vec<u8>,
    /// The step's consumers class by class — consumers whose compiled
    /// pipelines are equal sit side by side — in delivery order within a
    /// class and classes in order of their first member.
    members: Vec<usize>,
    /// The aggregation states of the class being folded, lent by its
    /// consumers for the fold.
    states: Vec<AggState>,
}

/// One predicate leaf with its column byte offset resolved against the
/// scan's schema. [`RowPipeline::compile`] flattens a [`Pred`] tree into
/// a conjunction of these so the row kernel reads fields straight out of
/// the row bytes — no `Box` chasing, no per-access offset lookup.
#[derive(Debug, PartialEq)]
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

impl PredLeaf {
    /// Keep the rows of `sel` that pass this leaf, in order. Every
    /// candidate is written and the write cursor advances only past a
    /// survivor, so the loop has no data-dependent branch to mispredict
    /// (Q6's predicate passes 29 % of its rows).
    fn filter(&self, region: &[u8], width: usize, sel: &mut Vec<u32>) {
        #[inline(always)]
        fn compact(region: &[u8], width: usize, sel: &mut Vec<u32>, pass: impl Fn(&[u8]) -> bool) {
            let mut kept = 0;
            for at in 0..sel.len() {
                let i = sel[at];
                sel[kept] = i;
                kept += pass(row_at(region, width, i)) as usize;
            }
            sel.truncate(kept);
        }
        // The leaf kind is matched once per page, not once per row.
        match *self {
            PredLeaf::I32Between { off, lo, hi } => compact(region, width, sel, |row| {
                let v = i32::from_le_bytes(row[off..off + 4].try_into().unwrap());
                lo <= v && v <= hi
            }),
            PredLeaf::F64LessThan { off, x } => {
                compact(region, width, sel, |row| f64_at(row, off) < x)
            }
            PredLeaf::CharEq { off, c } => compact(region, width, sel, |row| row[off] == c),
        }
    }
}

/// The scan's per-row work, compiled once at [`ScanExec::start`]: the
/// predicate flattened into [`PredLeaf`] conjuncts (left-to-right source
/// order; leaves are pure, so filtering leaf by leaf keeps exactly the
/// rows [`Pred::eval`]'s short-circuit does) and the aggregate's column
/// indexes resolved to byte offsets. The row kernel dominates simulator
/// wall time, so it must not touch `Schema`. Consumers whose pipelines
/// are equal form one class of a step: they select and decode alike.
#[derive(Debug, PartialEq)]
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

    /// The row kernel, one dense `region` of rows at a time, for every
    /// state of a class at once. *Select*: each leaf in turn narrows the
    /// selection vector `sel` to the rows that pass it. *Fold*: the
    /// survivors, in row order, are added to each of `states`.
    fn fold_region(&self, states: &mut [AggState], sel: &mut Vec<u32>, region: &[u8]) {
        if self.leaves.is_empty() {
            return AggState::fold(states, self, region.chunks_exact(self.stride()));
        }
        sel.clear();
        sel.extend(0..(region.len() / self.stride()) as u32);
        self.fold_selected(states, sel, region);
    }

    /// The kernel over the rows of `region` that `sel` names, in its
    /// order (a row named twice is folded twice).
    fn fold_selected(&self, states: &mut [AggState], sel: &mut Vec<u32>, region: &[u8]) {
        let width = self.stride();
        for leaf in &self.leaves {
            leaf.filter(region, width, sel);
        }
        let rows = sel.iter().map(move |&i| row_at(region, width, i));
        AggState::fold(states, self, rows);
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
/// Every accumulator — the count, each sum, each group's count and sums
/// — receives its addends one row at a time in delivery order, whatever
/// the page boundaries and whoever else rides the same pages:
/// `QueryResult`s are compared bit for bit across commits, and f64
/// addition does not associate.
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

/// Where the probe for `key` starts in a table of `mask + 1` slots.
#[inline(always)]
fn home_slot(key: i64, mask: usize) -> usize {
    // Packed chars differ in a few low bits of each byte; the upper half
    // of a Fibonacci-hash product spreads them.
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// The position in `keys` of `key`'s group, if it has one.
#[inline(always)]
fn find_group(slots: &[u32], keys: &[i64], key: i64) -> Option<usize> {
    let mask = slots.len().checked_sub(1)?;
    let mut at = home_slot(key, mask);
    loop {
        match slots[at] as usize {
            0 => return None,
            g if keys[g - 1] == key => return Some(g - 1),
            _ => at = (at + 1) & mask,
        }
    }
}

/// One state's group table as plain slices, for the length of a hot
/// loop.
struct GroupTable<'s> {
    slots: &'s [u32],
    keys: &'s [i64],
    counts: &'s mut [u64],
    sums: &'s mut [f64],
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

    /// Fold qualifying `rows` of `pipe`, in order, into each of
    /// `states`: one pass over the rows per chunk of up to four states,
    /// so a solitary consumer and a class of four alike walk them once.
    fn fold<'a>(
        states: &mut [AggState],
        pipe: &RowPipeline,
        rows: impl Iterator<Item = &'a [u8]> + Clone,
    ) {
        for chunk in states.chunks_mut(4) {
            let rows = rows.clone();
            match chunk.len() {
                1 => Self::fold_chunk::<1>(chunk, pipe, rows),
                2 => Self::fold_chunk::<2>(chunk, pipe, rows),
                3 => Self::fold_chunk::<3>(chunk, pipe, rows),
                _ => Self::fold_chunk::<4>(chunk, pipe, rows),
            }
        }
    }

    /// The running sums are copied out of the `K` states of `chunk` for
    /// the length of the pass — into arrays when a solitary state has at
    /// most eight and the states of a class at most four each (four by
    /// four fill the vector registers, and every array length is one more
    /// copy of the body), so they stay in registers across the page
    /// instead of being loaded and stored through `&mut` for every row —
    /// and continue from each state's totals so far.
    fn fold_chunk<'a, const K: usize>(
        chunk: &mut [AggState],
        pipe: &RowPipeline,
        rows: impl Iterator<Item = &'a [u8]>,
    ) {
        let states: &mut [AggState; K] = chunk.try_into().expect("a chunk of K states");
        macro_rules! with_arrays_of {
            ($($n:literal)*) => {
                match pipe.sum_offs.len() {
                    $($n if K == 1 || $n <= 4 => {
                        let offs: [usize; $n] = pipe.sum_offs[..].try_into().expect("length matched");
                        let sums: [[f64; $n]; K] =
                            states.each_ref().map(|s| s.sums[..].try_into().expect("one sum per offset"));
                        let sums = Self::fold_into(states, sums, offs, &pipe.group_offs, rows);
                        for (s, sums) in states.iter_mut().zip(sums) {
                            s.sums.copy_from_slice(&sums);
                        }
                    })*
                    _ => {
                        let sums = states.each_mut().map(|s| std::mem::take(&mut s.sums));
                        let sums = Self::fold_into(states, sums, &pipe.sum_offs[..], &pipe.group_offs, rows);
                        for (s, sums) in states.iter_mut().zip(sums) {
                            s.sums = sums;
                        }
                    }
                }
            };
        }
        with_arrays_of!(0 1 2 3 4 5 6 7 8);
    }

    /// The one fold body, over the `K` states' running `sums` held in
    /// arrays or `Vec`s (with the byte offset of each sum's column in
    /// `offs`). A row's fields are decoded once and added to each state's
    /// own accumulators in turn: every accumulator gets the addends, in
    /// the order, a fold of its state alone gives it, and the states' add
    /// chains overlap instead of queueing. Returns the sums.
    fn fold_into<'a, const K: usize, A: AsMut<[f64]> + Clone>(
        states: &mut [AggState; K],
        mut sums: [A; K],
        offs: impl AsRef<[usize]>,
        group_offs: &[usize],
        mut rows: impl Iterator<Item = &'a [u8]>,
    ) -> [A; K] {
        let offs = offs.as_ref();
        let n = offs.len();
        // The current row's fields, decoded for all the states (beyond
        // the array lengths this buffer is the one allocation of a pass).
        let mut vals = sums[0].clone();
        let vals = vals.as_mut();
        let decode = |vals: &mut [f64], row: &[u8]| {
            for (v, &off) in vals.iter_mut().zip(offs) {
                *v = f64_at(row, off);
            }
        };
        let mut folded = 0u64;
        if group_offs.is_empty() {
            for row in rows {
                folded += 1;
                decode(vals, row);
                for totals in &mut sums {
                    for (a, v) in totals.as_mut().iter_mut().zip(&*vals) {
                        *a += v;
                    }
                }
            }
        } else {
            // One byte per group column, packed most significant first
            // (columns past the eighth shift the first ones out).
            let pack = |row: &[u8]| {
                group_offs
                    .iter()
                    .fold(0i64, |key, &off| (key << 8) | row[off] as i64)
            };
            // A row goes to a state's totals and to its group's sums.
            let add = |vals: &[f64], totals: &mut A, group: &mut [f64]| {
                for ((a, s), v) in totals.as_mut().iter_mut().zip(group).zip(vals) {
                    *a += v;
                    *s += v;
                }
            };
            loop {
                // The loop proper runs over plain slices of the states'
                // group tables; a row of a group some state has not seen
                // before leaves it, before any state took the row.
                let mut tables = states.each_mut().map(|s| GroupTable {
                    slots: &s.slots,
                    keys: &s.keys,
                    counts: &mut s.counts,
                    sums: &mut s.group_sums,
                });
                let mut newcomer = None;
                'known: for row in rows.by_ref() {
                    folded += 1;
                    let key = pack(row);
                    let mut at = [0; K];
                    for (g, t) in at.iter_mut().zip(&tables) {
                        let Some(found) = find_group(t.slots, t.keys, key) else {
                            newcomer = Some((row, key));
                            break 'known;
                        };
                        *g = found;
                    }
                    decode(vals, row);
                    for k in 0..K {
                        let (t, g) = (&mut tables[k], at[k]);
                        t.counts[g] += 1;
                        add(vals, &mut sums[k], &mut t.sums[g * n..][..n]);
                    }
                }
                let Some((row, key)) = newcomer else { break };
                decode(vals, row);
                // Each state keeps its own first-appearance order: the
                // states met the groups in different orders.
                for (s, totals) in states.iter_mut().zip(&mut sums) {
                    let g =
                        find_group(&s.slots, &s.keys, key).unwrap_or_else(|| s.add_group(key, n));
                    s.counts[g] += 1;
                    add(vals, totals, &mut s.group_sums[g * n..][..n]);
                }
            }
        }
        for s in states {
            s.count += folded;
        }
        sums
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
            let mut at = home_slot(self.keys[g], mask);
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = g as u32 + 1;
        }
        new
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
            if let Some(tr) = &world.tracer {
                tr.record(now, crate::trace::TraceEvent::ScanFinished { scan: id });
            }
        }
    }
}

impl RowPipeline {
    /// Run the row kernel over one fetched extent for a class of this
    /// pipeline's consumers, whose states are lent in `scratch.states`:
    /// every page is walked once, whatever the size of the class. Row
    /// bytes are borrowed straight from the pinned pool frames and fields
    /// read at the pipeline's precompiled offsets. Returns the number of
    /// rows examined (the CPU-cost driver), whatever the number selected.
    fn fold_extent(
        &self,
        pool: &BufferPool,
        work: StepWork,
        scratch: &mut StepScratch,
    ) -> EngineResult<u64> {
        let StepScratch {
            pages,
            rids,
            sel,
            gathered,
            states,
            ..
        } = scratch;
        let (width, stride) = (self.width, self.stride());
        let gather = |gathered: &mut Vec<u8>, row: &[u8]| {
            let fields = row.get(..width).ok_or_else(|| {
                StorageError::Corrupt(format!("{}-byte record, schema has {width}", row.len()))
            })?;
            gathered.extend_from_slice(fields);
            gathered.resize(gathered.len() + stride - width, 0);
            Ok::<(), StorageError>(())
        };
        match work {
            StepWork::AllRows => {
                let mut rows = 0u64;
                for &(_, slot) in pages.iter() {
                    let page = HeapPage::new(pool.slot_buf(slot))?;
                    rows += page.num_rows() as u64;
                    // Fixed-width heap pages are folded where they lie;
                    // odd layouts are decoded slot by slot first.
                    if let Some(region) = page.dense_region(width) {
                        self.fold_region(states, sel, region);
                    } else {
                        gathered.clear();
                        for row in page.rows() {
                            gather(gathered, row)?;
                        }
                        self.fold_region(states, sel, gathered);
                    }
                }
                Ok(rows)
            }
            StepWork::Rids { .. } => {
                // Exactly the indexed rows, in key order, one run of RIDs
                // on the same page at a time. `pages` is sorted by page
                // id, so a run's page resolves by binary search.
                for run in rids.chunk_by(|a, b| a.0 == b.0) {
                    let at = pages
                        .binary_search_by_key(&run[0].0, |&(id, _)| id)
                        .expect("page fetched");
                    let page = HeapPage::new(pool.slot_buf(pages[at].1))?;
                    if let Some(region) = page.dense_region(width) {
                        // A fixed-width page is folded where it lies: the
                        // run's slots are the selection.
                        sel.clear();
                        let n_rows = page.num_rows();
                        for &(_, slot) in run {
                            if slot >= n_rows {
                                // Not a slot of this page: `row_bytes`
                                // has the error for that.
                                page.row_bytes(slot)?;
                            }
                            sel.push(slot as u32);
                        }
                        self.fold_selected(states, sel, region);
                    } else {
                        gathered.clear();
                        for &(_, slot) in run {
                            gather(gathered, page.row_bytes(slot)?)?;
                        }
                        self.fold_region(states, sel, gathered);
                    }
                }
                Ok(rids.len() as u64)
            }
        }
    }
}

/// Move the class of `members[start]` — the consumers further on whose
/// pipelines equal its own — next to it, everyone else keeping their
/// order, and return where the class ends. Only whole-page work is
/// `fusable`: RID steps stay consumer-at-a-time, every consumer a class.
fn gather_class(
    consumers: &[Consumer],
    members: &mut [usize],
    start: usize,
    fusable: bool,
) -> usize {
    let first = &consumers[members[start]].pipeline;
    let mut end = start + 1;
    for at in start + 1..members.len() {
        if fusable && consumers[members[at]].pipeline == *first {
            members[end..=at].rotate_right(1);
            end += 1;
        }
    }
    end
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
    scratch.rids.clear();
    let (work, location, units, wraps) = cursor.plan.gather(
        cursor.file,
        world.cfg.extent_pages,
        &mut scratch.ids,
        &mut scratch.rids,
    );

    // I/O, once for all consumers.
    let prof = world.profiler.clone();
    let fetch_span = prof
        .as_ref()
        .map(|p| p.begin_child("extent.fetch", now))
        .unwrap_or_else(scanshare::SpanId::none);
    let fetched = world.fetch_extent(now, &scratch.ids, &mut scratch.pages);
    // Attribute the fault events the world observed during this I/O
    // (including transient faults a retry absorbed) to the owner in the
    // manager's decision log.
    if world.faults_enabled() {
        scratch.faults.clear();
        world.take_fault_events(&mut scratch.faults);
        if let (Some(id), Some(mgr)) = (consumers[owner].scan, &world.mgr) {
            for e in &scratch.faults {
                mgr.note_fault(id, now, e.device, e.addr, e.transient, e.attempt);
            }
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
            if let Some(p) = &prof {
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
            let evicted = victim.scan.take();
            if let (Some(id), Some(mgr)) = (evicted, &world.mgr) {
                mgr.evict_scan(id, now, &reason);
                if let Some(tr) = &world.tracer {
                    tr.record(now, crate::trace::TraceEvent::ScanFinished { scan: id });
                }
            }
            victim.aborted = true;
            world.note_scan_aborted();
            return Ok(Step::Faulted(evicted));
        }
        Err(e) => return Err(e.into()),
    };
    if let Some(p) = &prof {
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

    // CPU: every pipeline runs over the fixed pages before release —
    // once per class of consumers, not once per consumer — and then each
    // consumer is charged its own share, owner first. One span covers
    // them all and closes at the owner's completion (the step's track is
    // the owner's stream).
    let cpu_span = prof
        .as_ref()
        .map(|p| p.begin_child("cpu.process", fetch.ready))
        .unwrap_or_else(scanshare::SpanId::none);
    scratch.members.clear();
    scratch.members.extend_from_slice(order);
    let fusable = matches!(work, StepWork::AllRows);
    // Rows examined: the same for every class, they walk the same pages.
    let mut seen = 0u64;
    let mut start = 0;
    while start < order.len() {
        let end = gather_class(consumers, &mut scratch.members, start, fusable);
        note_class(end - start);
        let class = &scratch.members[start..end];
        let lent = class
            .iter()
            .map(|&ci| std::mem::take(&mut consumers[ci].agg));
        scratch.states.extend(lent);
        let pipe = &consumers[class[0]].pipeline;
        let folded = pipe.fold_extent(&world.pool, work, scratch);
        let class = &scratch.members[start..end];
        for (&ci, agg) in class.iter().zip(scratch.states.drain(..)) {
            consumers[ci].agg = agg;
        }
        seen = folded?;
        start = end;
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
    if let Some(p) = &prof {
        p.attr(cpu_span, "rows", rows.to_string());
        p.end(cpu_span, done);
    }

    // Sharing-manager update: throttle wait + release priority.
    let mut wait = SimDuration::ZERO;
    let mut priority = PagePriority::Normal;
    let mut grouped = false;
    if let (true, Some(mgr)) = (managed, &world.mgr) {
        let pages_advanced = cursor.plan.pages_advanced(work, units);
        for &ci in order {
            let c = &mut consumers[ci];
            let Some(id) = c.scan else { continue };
            let out = mgr.update_location(id, c.ready_at, location, pages_advanced);
            // Riders only report; the owner's outcome is the cursor's.
            if ci != owner {
                continue;
            }
            wait = out.wait;
            priority = out.priority;
            grouped = out.role != scanshare::Role::Singleton;
            c.metrics.throttle_wait += wait;
            if wait > SimDuration::ZERO {
                let role = crate::trace::role_label(out.role);
                if let Some(p) = &prof {
                    let s = p.begin_child("throttle.wait", done);
                    p.attr(s, "wait_us", wait.as_micros().to_string());
                    p.attr(s, "role", role.to_string());
                    p.end(s, done + wait);
                }
                world.throttle_hist.record(wait.as_micros());
                if let Some(tr) = &world.tracer {
                    tr.record(
                        done,
                        crate::trace::TraceEvent::Throttled {
                            scan: id,
                            wait,
                            role: role.to_string(),
                        },
                    );
                }
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
    /// Human-readable description of the placement decision (tracing).
    placement: String,
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

    // Build the plan skeleton and the manager registration record.
    let (plan, desc) = match &spec.access {
        Access::FullTable => {
            let num_pages = table.num_pages();
            let desc = ScanDesc {
                kind: ScanKind::Table,
                object: ObjectId(file.0 as u64),
                start_key: 0,
                end_key: num_pages.saturating_sub(1) as i64,
                est_pages: num_pages as u64,
                est_time: ScanExec::estimate_time(world, spec, num_pages as u64, rows_per_page),
                priority: spec.query_priority,
            };
            (
                Plan::Table {
                    num_pages,
                    start_page: 0,
                    visited: 0,
                },
                desc,
            )
        }
        Access::RidRange { lo, hi } => {
            let index = table
                .rid_index
                .as_ref()
                .ok_or_else(|| EngineError::NotClustered(spec.table.clone()))?;
            let entries = index.range(db.store(), *lo, *hi)?;
            // Low-selectivity RID fetches touch roughly one distinct
            // page per entry, capped by the table size.
            let est_pages = (entries.len() as u64).min(table.num_pages() as u64);
            let desc = ScanDesc {
                kind: ScanKind::Index,
                object: ObjectId(file.0 as u64),
                start_key: *lo,
                end_key: *hi,
                est_pages,
                est_time: ScanExec::estimate_time(world, spec, est_pages, 1),
                priority: spec.query_priority,
            };
            (
                Plan::Rid {
                    entries,
                    start_idx: 0,
                    visited: 0,
                },
                desc,
            )
        }
        Access::IndexRange { lo, hi } => {
            let mdc = table
                .as_mdc()
                .ok_or_else(|| EngineError::NotClustered(spec.table.clone()))?;
            let entries = mdc.blocks_for_range(db.store(), *lo, *hi)?;
            let est_pages = entries.len() as u64 * mdc.block_pages as u64;
            let desc = ScanDesc {
                kind: ScanKind::Index,
                object: ObjectId(file.0 as u64),
                start_key: *lo,
                end_key: *hi,
                est_pages,
                est_time: ScanExec::estimate_time(world, spec, est_pages, rows_per_page),
                priority: spec.query_priority,
            };
            (
                Plan::Index {
                    entries,
                    block_pages: mdc.block_pages,
                    start_idx: 0,
                    visited: 0,
                },
                desc,
            )
        }
    };
    Ok(PlannedScan {
        file,
        schema,
        plan,
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
        let mut placement = "unmanaged".to_string();
        if let (Some(mgr), true) = (&world.mgr, kind_shared) {
            let (id, decision) = mgr.start_scan(desc, now);
            consumer.scan = Some(id);
            placement = crate::trace::placement_label(&decision);
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
            placement,
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

    /// Whether the scan died to a fault (its result is partial).
    pub fn aborted(&self) -> bool {
        self.consumer.aborted
    }

    /// How placement started this scan (for tracing).
    pub fn placement_label(&self) -> &str {
        &self.placement
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
                if let Some(tr) = &world.tracer {
                    tr.record(now, crate::trace::TraceEvent::ScanWrapped { scan: id });
                }
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

/// Tests count the classes of more than one consumer that steps fold.
#[cfg(not(test))]
fn note_class(_consumers: usize) {}

#[cfg(test)]
fn note_class(consumers: usize) {
    FUSED_CLASSES.with(|n| n.set(n.get() + (consumers > 1) as u64));
}

#[cfg(test)]
thread_local! {
    static FUSED_CLASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many classes of more than one consumer this thread's steps have
/// folded so far.
#[cfg(test)]
pub(crate) fn fused_classes() -> u64 {
    FUSED_CLASSES.with(|n| n.get())
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
        rids: &mut Vec<(PageId, u16)>,
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
            rids.push((pid, rid.slot));
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
        let file = FileId(3);
        let (mut ids, mut rids) = (Vec::new(), Vec::new());
        let (mut want_ids, mut want_rids) = (Vec::new(), Vec::new());
        let mut chunks_cut_by_the_wrap = 0;
        let mut plan = Plan::Rid {
            entries: entries.clone(),
            start_idx: 0,
            visited: 0,
        };
        for extent_pages in [1, 4, 16] {
            for start_idx in 0..entries.len() {
                for visited in 0..entries.len() {
                    let Plan::Rid {
                        start_idx: s,
                        visited: v,
                        ..
                    } = &mut plan
                    else {
                        unreachable!()
                    };
                    (*s, *v) = (start_idx, visited);
                    ids.clear();
                    rids.clear();
                    want_ids.clear();
                    want_rids.clear();
                    let (work, location, units, wraps) =
                        plan.gather(file, extent_pages, &mut ids, &mut rids);
                    let StepWork::Rids { distinct_pages } = work else {
                        panic!("a RID plan gathers RID work");
                    };
                    let want = rid_gather_by_modulo(
                        &entries,
                        start_idx,
                        visited,
                        file,
                        extent_pages,
                        &mut want_ids,
                        &mut want_rids,
                    );
                    let at = format!("extent {extent_pages} start {start_idx} visited {visited}");
                    assert_eq!((distinct_pages, location, units, wraps), want, "{at}");
                    assert_eq!(ids, want_ids, "{at}");
                    assert_eq!(rids, want_rids, "{at}");
                    chunks_cut_by_the_wrap += wraps as usize;
                }
            }
        }
        assert!(chunks_cut_by_the_wrap > 300, "the wrap was hardly reached");
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
        assert!(matches!(err, EngineError::NotClustered(_)));
    }

    #[test]
    fn shared_rid_scans_cover_their_ranges() {
        use scanshare::{ScanSharingManager, SharingConfig};
        use std::sync::Arc;
        let db = small_db();
        let pool = BufferPool::new(PoolConfig::new(256, ReplacementPolicy::PriorityLru));
        let mgr = Arc::new(ScanSharingManager::new(SharingConfig::new(256)));
        let mut w = ExecWorld::new(db.store(), pool, EngineConfig::default(), Some(mgr.clone()));
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
        assert_eq!(mgr.num_active(), 0);
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
        use std::sync::Arc;
        let db = small_db();
        let pool = BufferPool::new(PoolConfig::new(256, ReplacementPolicy::PriorityLru));
        let mgr = Arc::new(ScanSharingManager::new(SharingConfig::new(256)));
        let mut w = ExecWorld::new(db.store(), pool, EngineConfig::default(), Some(mgr.clone()));
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
            assert_eq!(mgr.num_active(), 0, "a rejected scan stayed registered");
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

    /// Classes keep delivery order inside and first-member order among
    /// themselves, and a RID step has no class of two.
    #[test]
    fn a_step_partitions_its_consumers_by_pipeline() {
        let db = small_db();
        let schema = db.table("orders").unwrap().schema().clone();
        let consumer = |pred| Consumer::new(&table_spec(pred), &schema, SimTime::ZERO).unwrap();
        let q6 = || consumer(Pred::I32Between(0, 0, 2));
        // Seats 0..5: filter, plain, filter, another filter, plain.
        let consumers = [
            q6(),
            consumer(Pred::True),
            q6(),
            consumer(Pred::I32Between(0, 0, 3)),
            consumer(Pred::True),
        ];
        let classes = |order: &[usize], fusable| {
            let mut members = order.to_vec();
            let mut ends = Vec::new();
            while ends.last().copied().unwrap_or(0) < members.len() {
                let start = ends.last().copied().unwrap_or(0);
                ends.push(gather_class(&consumers, &mut members, start, fusable));
            }
            (members, ends)
        };
        let order = [3, 0, 1, 2, 4];
        assert_eq!(classes(&order, true), (vec![3, 0, 2, 1, 4], vec![1, 3, 5]));
        assert_eq!(classes(&[2], true), (vec![2], vec![1]));
        assert_eq!(
            classes(&order, false),
            (order.to_vec(), vec![1, 2, 3, 4, 5])
        );
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
        use std::sync::Arc;
        let db = small_db();
        let pool = BufferPool::new(PoolConfig::new(256, ReplacementPolicy::PriorityLru));
        let mgr = Arc::new(ScanSharingManager::new(SharingConfig::new(256)));
        let mut w = ExecWorld::new(db.store(), pool, EngineConfig::default(), Some(mgr.clone()));

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
        assert_eq!(mgr.stats().scans_joined, 1);
        // Finish the first scan too.
        while let Some(next) = s1.step(&mut w, t).unwrap() {
            t = next;
        }
        assert_eq!(s1.result().count, 20_000);
        assert_eq!(mgr.num_active(), 0);
    }
}

#[cfg(test)]
/// Naive answer oracle for the row kernel (the row-level slice of
/// ROADMAP item 1a). The reference evaluator is the public one no
/// production code calls — [`Pred::eval`], [`AggSpec::group_key`] and
/// `RowRef::get_f64` — folded one row at a time in delivery order; the
/// kernel must agree with it on every count and on every sum bit for
/// bit. Written and run green against the per-row
/// `matches`/`accumulate` loop before that loop was replaced.
mod kernel_oracle {
    use std::collections::BTreeMap;

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

    /// The reference fold: one row at a time, through the public
    /// evaluator.
    #[derive(Default)]
    struct Naive {
        count: u64,
        sums: Vec<f64>,
        groups: BTreeMap<i64, (u64, Vec<f64>)>,
    }

    impl Naive {
        fn fold(&mut self, spec: &ScanSpec, row: &RowRef<'_>) {
            if !spec.pred.eval(row) {
                return;
            }
            let n = spec.agg.sum_cols.len();
            self.sums.resize(n, 0.0);
            self.count += 1;
            for (i, &c) in spec.agg.sum_cols.iter().enumerate() {
                self.sums[i] += row.get_f64(c);
            }
            if !spec.agg.group_by.is_empty() {
                let g = self
                    .groups
                    .entry(spec.agg.group_key(row))
                    .or_insert_with(|| (0, vec![0.0; n]));
                g.0 += 1;
                for (i, &c) in spec.agg.sum_cols.iter().enumerate() {
                    g.1[i] += row.get_f64(c);
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
    }

    /// The push engine keeps every finished consumer until the run ends,
    /// so an aggregate that never groups must own its sums and nothing
    /// else (an eager 1 KB table per consumer once cost `tpch64_push` 7 %
    /// of its peak RSS).
    #[test]
    fn ungrouped_state_owns_only_its_sums() {
        for n in [0, 2, 8, 11] {
            let mut agg = [AggState::new(n)];
            let pipe = RowPipeline::compile(
                &Pred::True,
                &AggSpec::sums((F0..F0 + n).map(|c| F0 + (c - F0) % N_F64).collect()),
                &schema(),
                "t",
            )
            .unwrap();
            let row = vec![0u8; schema().row_width()];
            pipe.fold_region(&mut agg, &mut Vec::new(), &row);
            let [agg] = agg;
            assert_eq!((agg.count, agg.sums.capacity()), (1, n));
            assert_eq!(agg.keys.capacity(), 0);
            assert_eq!(agg.counts.capacity(), 0);
            assert_eq!(agg.group_sums.capacity(), 0);
            assert_eq!(agg.slots.capacity(), 0);
        }
    }

    /// A table without columns has zero-byte records; they still count,
    /// and a record shorter than its schema is an error, not a panic.
    #[test]
    fn zero_width_rows_count_and_short_records_are_rejected() {
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
        let mut store = FileStore::new(16);
        let file = store.create_file();
        let mut page = HeapPageBuilder::new();
        page.push(&vec![0u8; s.row_width() - 1]).unwrap();
        store.append_page(file, page.finish()).unwrap();
        let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
        let mut world = ExecWorld::new(&store, pool, EngineConfig::default(), None);
        let plan = Plan::Table {
            num_pages: 1,
            start_page: 0,
            visited: 0,
        };
        let stepped = step_extent(
            &mut world,
            SimTime::ZERO,
            &mut Cursor::new(file, plan),
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

    /// A RID that names a slot its page does not have, or a record
    /// shorter than the schema, is `Corrupt` whether its page is
    /// fixed-width (folded where it lies) or slotted (gathered first) —
    /// and the same RIDs without the bad one are counted.
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
        let run = |rids: &[(u32, u16)]| {
            let pool = BufferPool::new(PoolConfig::new(64, ReplacementPolicy::Lru));
            let mut world = ExecWorld::new(&store, pool, EngineConfig::default(), None);
            let entries = rids
                .iter()
                .enumerate()
                .map(|(k, &(page, slot))| Entry::new(k as i64, Rid::new(page, slot).pack()))
                .collect();
            let plan = Plan::Rid {
                entries,
                start_idx: 0,
                visited: 0,
            };
            let mut consumers = [Consumer::new(&spec, &s, SimTime::ZERO).unwrap()];
            step_extent(
                &mut world,
                SimTime::ZERO,
                &mut Cursor::new(file, plan),
                &mut StepScratch::default(),
                &mut consumers,
                &[0],
                false,
            )
            .map(|_| consumers[0].result().count)
        };
        let good = [(0, 0), (0, 2), (0, 2), (1, 1), (1, 0), (0, 1), (2, 0)];
        assert_eq!(run(&good).unwrap(), 7);
        for bad in [(0, 3), (0, u16::MAX), (1, 3), (2, 1), (2, 2)] {
            for at in [0, 3, good.len()] {
                let mut rids = good.to_vec();
                rids.insert(at, bad);
                assert!(
                    matches!(
                        run(&rids),
                        Err(EngineError::Storage(StorageError::Corrupt(_)))
                    ),
                    "RID {bad:?} at {at} was not rejected"
                );
            }
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
                (
                    Plan::Rid {
                        entries,
                        start_idx,
                        visited: 0,
                    },
                    order,
                )
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
                (
                    Plan::Table {
                        num_pages: n_pages as u32,
                        start_page: start_page as u32,
                        visited: 0,
                    },
                    order,
                )
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

            for (sp, c) in specs.iter().zip(&consumers) {
                let mut want = Naive::default();
                for &(p, r) in &order {
                    want.fold(
                        sp,
                        &RowRef {
                            bytes: &pages[p][r],
                            schema: &s,
                        },
                    );
                }
                let got = c.result();
                assert_same(case, sp, &got, &want);
                reached.empty_result += (got.count == 0 && !order.is_empty()) as u32;
                reached.sums_over_8 += (sp.agg.sum_cols.len() > 8 && got.count > 0) as u32;
                reached.groups_17_to_300 += (17..=300).contains(&got.groups.len()) as u32;
                reached.groups_over_300 += (got.groups.len() > 300) as u32;
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
        ] {
            assert!(n >= 5, "only {n} cases reached: {what}");
        }
    }

    /// Riders of one pipeline are folded together. K = 1..=9 consumers
    /// of one spec (so register chunks of four and every remainder are
    /// hit) first fold *different* seeded rows on their own — a RID
    /// replay each, so they ride with different running totals and have
    /// met the groups in different orders — then ride one cursor over
    /// the same pages. The reference is consumer-at-a-time: one naive
    /// fold per consumer over its own rows, then the shared ones.
    #[test]
    fn riders_of_one_pipeline_match_consumer_at_a_time_folds_bit_for_bit() {
        #[derive(Default)]
        struct Reached {
            fused_over_8_sums: u32,
            fused_no_sums: u32,
            fused_grouped_over_4_riders: u32,
            fused_ungrouped: u32,
            fused_with_leaves: u32,
            fused_without_leaves: u32,
            fused_slotted_pages: u32,
            newcomer_mid_page_in_some_riders_only: u32,
            a_stranger_between_riders: u32,
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
            // one seated between them: its class must not disturb theirs.
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
                    .collect();
                let plan = Plan::Rid {
                    entries,
                    start_idx: 0,
                    visited: 0,
                };
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

            // The shared lap, owner somewhere in the middle of the seats.
            let mut order: Vec<usize> = (0..specs.len()).collect();
            order.rotate_left(rng.bounded_u64(specs.len() as u64) as usize);
            let plan = Plan::Table {
                num_pages: n_pages as u32,
                start_page: start_page as u32,
                visited: 0,
            };
            let fused_before = fused_classes();
            run(&mut world, &mut scratch, &mut consumers, plan, &order);
            // One class of riders per step, and only with company.
            let steps = ((n_pages - start_page).div_ceil(16) + start_page.div_ceil(16)) as u64;
            let fused = fused_classes() - fused_before;
            assert_eq!(fused, if k > 1 { steps } else { 0 }, "case {case}");
            for ci in 0..specs.len() {
                lap.iter()
                    .for_each(|at| want[ci].fold(&specs[ci], &row_ref(at)));
                assert_same(case, &specs[ci], &consumers[ci].result(), &want[ci]);
            }

            if k > 1 {
                let (n_sums, grouped) = (rider.agg.sum_cols.len(), !rider.agg.group_by.is_empty());
                let rows = want[riders[0]].count > 0;
                reached.fused_over_8_sums += (n_sums > 8 && rows) as u32;
                reached.fused_no_sums += (n_sums == 0 && rows) as u32;
                reached.fused_grouped_over_4_riders += (grouped && k > 4 && rows) as u32;
                reached.fused_ungrouped += (!grouped && rows) as u32;
                reached.fused_with_leaves += (rider.pred != Pred::True && rows) as u32;
                reached.fused_without_leaves += (rider.pred == Pred::True) as u32;
                reached.fused_slotted_pages +=
                    pages.iter().flatten().any(|r| r.len() != s.row_width()) as u32;
            }
        }
        let r = &reached;
        for (what, n) in [
            ("riders with more than 8 sum columns", r.fused_over_8_sums),
            ("riders that only count", r.fused_no_sums),
            ("more than 4 grouped riders", r.fused_grouped_over_4_riders),
            ("ungrouped riders", r.fused_ungrouped),
            ("riders with a predicate", r.fused_with_leaves),
            ("riders without a predicate", r.fused_without_leaves),
            ("riders over slotted-fallback pages", r.fused_slotted_pages),
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
    }
}
