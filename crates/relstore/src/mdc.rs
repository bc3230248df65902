//! MDC-style block-clustered tables.
//!
//! A Multi-Dimensionally Clustered table (§3.4 of the paper) stores rows
//! in *blocks*: fixed-size runs of contiguous pages that all contain rows
//! of the same clustering-key cell. A **block index** maps each cell key
//! to the list of its block ids (BIDs).
//!
//! The builder buffers one open block per cell and flushes complete
//! blocks in completion order. Cells that fill up concurrently therefore
//! interleave their blocks on disk — exactly the layout that makes a
//! key-ordered block index scan seek between block runs, which is the
//! I/O pattern the scan-sharing machinery optimizes.

use std::collections::BTreeMap;

use scanshare_storage::{FileId, FileStore, StorageResult};

use crate::btree::{BTree, Entry};
use crate::heap::HeapPageBuilder;
use crate::value::{Schema, Value};

/// A block id: the index of a block-sized page run within the table file.
pub type BlockId = u32;

/// A fully loaded MDC table.
#[derive(Debug, Clone)]
pub struct MdcTable {
    /// Backing file of the table pages.
    pub file: FileId,
    /// Row schema.
    pub schema: Schema,
    /// Pages per block.
    pub block_pages: u32,
    /// Number of blocks in the table.
    pub num_blocks: u32,
    /// Number of rows in the table.
    pub num_rows: u64,
    /// Block index: cell key -> BIDs (as B+ tree payloads).
    pub block_index: BTree,
    /// Smallest cell key present.
    pub min_key: i64,
    /// Largest cell key present.
    pub max_key: i64,
}

impl MdcTable {
    /// Total table pages (blocks × pages per block).
    pub fn num_pages(&self) -> u32 {
        self.num_blocks * self.block_pages
    }

    /// Page numbers covered by block `bid`.
    pub fn block_page_range(&self, bid: BlockId) -> std::ops::Range<u32> {
        let start = bid * self.block_pages;
        start..start + self.block_pages
    }

    /// The `(cell key, BID)` entries for cells in `[lo, hi]`, in index
    /// order — the sequence a block index scan traverses.
    pub fn blocks_for_range(
        &self,
        store: &FileStore,
        lo: i64,
        hi: i64,
    ) -> StorageResult<Vec<Entry>> {
        self.block_index.range(store, lo, hi)
    }
}

struct OpenBlock {
    pages: Vec<HeapPageBuilder>,
}

impl OpenBlock {
    fn new() -> Self {
        OpenBlock {
            pages: vec![HeapPageBuilder::new()],
        }
    }
}

/// Builds an MDC table by appending `(cell key, row)` pairs in any order.
pub struct MdcTableBuilder {
    file: FileId,
    schema: Schema,
    block_pages: u32,
    open: BTreeMap<i64, OpenBlock>,
    index_entries: Vec<Entry>,
    blocks_flushed: u32,
    rows: u64,
    rowbuf: Vec<u8>,
}

impl MdcTableBuilder {
    /// Start building an MDC table with `block_pages` pages per block.
    pub fn create(store: &mut FileStore, schema: Schema, block_pages: u32) -> Self {
        assert!(block_pages > 0);
        let file = store.create_file();
        MdcTableBuilder {
            file,
            block_pages,
            open: BTreeMap::new(),
            index_entries: Vec::new(),
            blocks_flushed: 0,
            rows: 0,
            rowbuf: vec![0u8; schema.row_width()],
            schema,
        }
    }

    /// Append one row into the cell `cell_key`.
    pub fn append(
        &mut self,
        store: &mut FileStore,
        cell_key: i64,
        values: &[Value],
    ) -> StorageResult<()> {
        self.schema.encode_row(values, &mut self.rowbuf);
        let width = self.schema.row_width();
        let block_pages = self.block_pages as usize;
        let block = self.open.entry(cell_key).or_insert_with(OpenBlock::new);
        let record = &self.rowbuf[..width];
        let fit = block
            .pages
            .last_mut()
            .expect("open block has a page")
            .push(record)
            .is_some();
        if !fit {
            if block.pages.len() < block_pages {
                // Start the next page of the block.
                let mut p = HeapPageBuilder::new();
                p.push(record).expect("fresh page fits one record");
                block.pages.push(p);
            } else {
                // Block is full: flush it and open a fresh one.
                let full = std::mem::replace(block, OpenBlock::new());
                Self::flush_block(
                    store,
                    self.file,
                    self.block_pages,
                    &mut self.blocks_flushed,
                    &mut self.index_entries,
                    cell_key,
                    full,
                )?;
                self.open
                    .get_mut(&cell_key)
                    .unwrap()
                    .pages
                    .last_mut()
                    .unwrap()
                    .push(record)
                    .expect("fresh page fits one record");
            }
        }
        self.rows += 1;
        Ok(())
    }

    fn flush_block(
        store: &mut FileStore,
        file: FileId,
        block_pages: u32,
        blocks_flushed: &mut u32,
        index_entries: &mut Vec<Entry>,
        cell_key: i64,
        block: OpenBlock,
    ) -> StorageResult<()> {
        let bid = *blocks_flushed;
        let mut written = 0;
        for page in block.pages {
            store.append_page(file, page.finish())?;
            written += 1;
        }
        // Pad partial blocks so blocks stay aligned, contiguous page runs.
        while written < block_pages {
            store.append_page(file, HeapPageBuilder::new().finish())?;
            written += 1;
        }
        index_entries.push(Entry::new(cell_key, bid as u64));
        *blocks_flushed += 1;
        Ok(())
    }

    /// Flush all open blocks, build the block index, and return the table.
    pub fn finish(mut self, store: &mut FileStore) -> StorageResult<MdcTable> {
        let open = std::mem::take(&mut self.open);
        for (cell_key, block) in open {
            if block.pages.len() == 1 && block.pages[0].num_rows() == 0 {
                continue;
            }
            Self::flush_block(
                store,
                self.file,
                self.block_pages,
                &mut self.blocks_flushed,
                &mut self.index_entries,
                cell_key,
                block,
            )?;
        }
        self.index_entries.sort();
        let (min_key, max_key) = if self.index_entries.is_empty() {
            (0, -1)
        } else {
            (
                self.index_entries[0].key,
                self.index_entries[self.index_entries.len() - 1].key,
            )
        };
        let block_index = BTree::bulk_load(store, &self.index_entries)?;
        Ok(MdcTable {
            file: self.file,
            schema: self.schema,
            block_pages: self.block_pages,
            num_blocks: self.blocks_flushed,
            num_rows: self.rows,
            block_index,
            min_key,
            max_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapPage;
    use crate::value::{ColType, Column, RowRef};
    use scanshare_storage::PageId;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("amount", ColType::Float64),
        ])
    }

    fn build(rows: &[(i64, f64)], block_pages: u32) -> (FileStore, MdcTable) {
        let mut store = FileStore::new(block_pages);
        let mut b = MdcTableBuilder::create(&mut store, schema(), block_pages);
        for &(cell, amount) in rows {
            b.append(
                &mut store,
                cell,
                &[Value::I32(cell as i32), Value::F64(amount)],
            )
            .unwrap();
        }
        let t = b.finish(&mut store).unwrap();
        (store, t)
    }

    /// Count rows of each cell by scanning the blocks the index reports.
    fn rows_in_cell(store: &FileStore, t: &MdcTable, cell: i64) -> u64 {
        let mut n = 0;
        for e in t.blocks_for_range(store, cell, cell).unwrap() {
            for p in t.block_page_range(e.payload as u32) {
                let bytes = store.read_page(PageId::new(t.file, p)).unwrap();
                let page = HeapPage::new(&bytes).unwrap();
                for row in page.rows() {
                    let r = RowRef {
                        bytes: row.unwrap(),
                        schema: &t.schema,
                    };
                    assert_eq!(r.get_i32(0) as i64, cell, "row in wrong cell block");
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn rows_land_in_their_cells() {
        let rows: Vec<(i64, f64)> = (0..5000).map(|i| ((i % 3) as i64, i as f64)).collect();
        let (store, t) = build(&rows, 2);
        assert_eq!(t.num_rows, 5000);
        for cell in 0..3 {
            let expected = rows.iter().filter(|r| r.0 == cell).count() as u64;
            assert_eq!(rows_in_cell(&store, &t, cell), expected);
        }
    }

    #[test]
    fn blocks_are_contiguous_page_runs() {
        let rows: Vec<(i64, f64)> = (0..8000).map(|i| ((i % 4) as i64, i as f64)).collect();
        let (store, t) = build(&rows, 4);
        for bid in 0..t.num_blocks {
            let pages: Vec<u64> = t
                .block_page_range(bid)
                .map(|p| store.physical(PageId::new(t.file, p)).unwrap())
                .collect();
            for w in pages.windows(2) {
                assert_eq!(w[1], w[0] + 1, "block {bid} not physically contiguous");
            }
        }
    }

    #[test]
    fn interleaved_cells_interleave_blocks() {
        // Round-robin inserts across 2 cells: block flush order must
        // alternate, so consecutive BIDs belong to different cells.
        let rows: Vec<(i64, f64)> = (0..40_000).map(|i| ((i % 2) as i64, i as f64)).collect();
        let (store, t) = build(&rows, 2);
        let cell0: Vec<u64> = t
            .blocks_for_range(&store, 0, 0)
            .unwrap()
            .iter()
            .map(|e| e.payload)
            .collect();
        let cell1: Vec<u64> = t
            .blocks_for_range(&store, 1, 1)
            .unwrap()
            .iter()
            .map(|e| e.payload)
            .collect();
        assert!(cell0.len() > 1 && cell1.len() > 1);
        // Cell 0's blocks are not all before cell 1's: they interleave.
        assert!(cell0[cell0.len() - 1] > cell1[0]);
        assert!(cell1[cell1.len() - 1] > cell0[0]);
    }

    #[test]
    fn index_entries_are_sorted_and_min_max_tracked() {
        let rows: Vec<(i64, f64)> = vec![(5, 1.0), (2, 2.0), (9, 3.0), (2, 4.0)];
        let (store, t) = build(&rows, 1);
        let all = t.block_index.all(&store).unwrap();
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(t.min_key, 2);
        assert_eq!(t.max_key, 9);
    }

    #[test]
    fn empty_table() {
        let (store, t) = build(&[], 2);
        assert_eq!(t.num_blocks, 0);
        assert_eq!(t.num_rows, 0);
        assert_eq!(
            t.blocks_for_range(&store, i64::MIN, i64::MAX).unwrap(),
            vec![]
        );
    }

    #[test]
    fn partial_blocks_are_padded_to_alignment() {
        let rows: Vec<(i64, f64)> = vec![(1, 1.0)];
        let (store, t) = build(&rows, 4);
        assert_eq!(t.num_blocks, 1);
        assert_eq!(store.num_pages(t.file).unwrap(), 4);
        // Pages 1..4 are empty padding.
        for p in 1..4 {
            let bytes = store.read_page(PageId::new(t.file, p)).unwrap();
            assert_eq!(HeapPage::new(&bytes).unwrap().num_rows(), 0);
        }
    }

    #[test]
    fn cell_fills_multiple_blocks() {
        // One cell with enough rows for several blocks.
        let rows: Vec<(i64, f64)> = (0..30_000).map(|i| (7, i as f64)).collect();
        let (store, t) = build(&rows, 2);
        let bids = t.blocks_for_range(&store, 7, 7).unwrap();
        assert!(bids.len() > 2);
        assert_eq!(rows_in_cell(&store, &t, 7), 30_000);
        // BIDs for a single cell are returned in increasing order.
        assert!(bids.windows(2).all(|w| w[0].payload < w[1].payload));
    }
}
