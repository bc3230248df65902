//! Slotted heap pages and append-only heap files.
//!
//! Page layout (all little-endian):
//!
//! ```text
//! +-------------------+--------------------------------+-----------------+
//! | n_slots | free_off| records, growing upward ...    | ... slot array  |
//! |  u16    |  u16    |                                | growing downward|
//! +-------------------+--------------------------------+-----------------+
//! 0         2         4                                          PAGE_SIZE
//! ```
//!
//! Each slot descriptor is 4 bytes (`offset: u16`, `len: u16`), stored from
//! the end of the page backwards. Records are addressed by [`Rid`]
//! (page number, slot number), the unit of scan location in the papers.

use bytes::BytesMut;
use scanshare_storage::{FileId, FileStore, PageId, StorageError, StorageResult, PAGE_SIZE};
use serde::{Deserialize, Serialize};

use crate::value::{Schema, Value};

const HEADER_LEN: usize = 4;
const SLOT_LEN: usize = 4;

/// Record identifier: a page number and a slot within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rid {
    /// Page number within the owning file.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl Rid {
    /// Construct a RID.
    pub const fn new(page: u32, slot: u16) -> Self {
        Rid { page, slot }
    }

    /// Pack into a `u64` for use as a B+ tree payload.
    pub const fn pack(self) -> u64 {
        ((self.page as u64) << 16) | self.slot as u64
    }

    /// Unpack from a B+ tree payload.
    pub const fn unpack(v: u64) -> Self {
        Rid {
            page: (v >> 16) as u32,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// Read-only view over a slotted heap page.
#[derive(Clone, Copy)]
pub struct HeapPage<'a> {
    bytes: &'a [u8],
}

impl<'a> HeapPage<'a> {
    /// Wrap raw page bytes. Validates the header against the page size.
    pub fn new(bytes: &'a [u8]) -> StorageResult<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "heap page has {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        let page = HeapPage { bytes };
        let n = page.num_rows() as usize;
        if HEADER_LEN + n * SLOT_LEN > PAGE_SIZE {
            return Err(StorageError::Corrupt(format!("slot count {n} impossible")));
        }
        Ok(page)
    }

    /// Number of records on the page.
    pub fn num_rows(&self) -> u16 {
        u16::from_le_bytes(self.bytes[0..2].try_into().unwrap())
    }

    /// The encoded bytes of the record in `slot`.
    pub fn row_bytes(&self, slot: u16) -> StorageResult<&'a [u8]> {
        if slot >= self.num_rows() {
            return Err(StorageError::Corrupt(format!(
                "slot {slot} out of range ({} rows)",
                self.num_rows()
            )));
        }
        let desc_at = PAGE_SIZE - SLOT_LEN * (slot as usize + 1);
        let off = u16::from_le_bytes(self.bytes[desc_at..desc_at + 2].try_into().unwrap()) as usize;
        let len =
            u16::from_le_bytes(self.bytes[desc_at + 2..desc_at + 4].try_into().unwrap()) as usize;
        if off + len > PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "slot {slot} points past page end"
            )));
        }
        Ok(&self.bytes[off..off + len])
    }

    /// Iterate the encoded bytes of every record on the page.
    pub fn rows(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        (0..self.num_rows()).map(move |s| self.row_bytes(s).expect("validated slot"))
    }

    /// The record bytes of a page [`HeapWriter`] produced from a
    /// fixed-width schema: every record is `width` bytes and they sit
    /// contiguously after the header, so row `i` is
    /// `region[i * width..][..width]` with no per-slot descriptor
    /// decoding. The layout is verified in O(1) from the first and last
    /// slot descriptors (the writer assigns offsets monotonically, so
    /// those two pin down every slot in between for fixed-width records);
    /// any mismatch — and an empty page — returns `None` and the caller
    /// falls back to [`HeapPage::rows`].
    pub fn dense_region(&self, width: usize) -> Option<&'a [u8]> {
        let n = self.num_rows() as usize;
        if width == 0 || n == 0 {
            return None;
        }
        let end = HEADER_LEN + n * width;
        if end > PAGE_SIZE - SLOT_LEN * n {
            return None;
        }
        let slot = |s: usize| -> (usize, usize) {
            let at = PAGE_SIZE - SLOT_LEN * (s + 1);
            (
                u16::from_le_bytes(self.bytes[at..at + 2].try_into().unwrap()) as usize,
                u16::from_le_bytes(self.bytes[at + 2..at + 4].try_into().unwrap()) as usize,
            )
        };
        let (first_off, first_len) = slot(0);
        let (last_off, last_len) = slot(n - 1);
        if first_off != HEADER_LEN
            || first_len != width
            || last_len != width
            || last_off != HEADER_LEN + (n - 1) * width
        {
            return None;
        }
        Some(&self.bytes[HEADER_LEN..end])
    }

    /// [`HeapPage::dense_region`] as an iterator over its rows: exactly
    /// the byte slices `rows()` yields, when it applies.
    pub fn rows_dense(&self, width: usize) -> Option<std::slice::ChunksExact<'a, u8>> {
        self.dense_region(width).map(|r| r.chunks_exact(width))
    }
}

/// Incremental builder for one slotted heap page.
#[derive(Debug)]
pub struct HeapPageBuilder {
    buf: BytesMut,
    n_slots: u16,
    free_off: u16,
}

impl HeapPageBuilder {
    /// Start an empty page.
    pub fn new() -> Self {
        HeapPageBuilder {
            buf: BytesMut::zeroed(PAGE_SIZE),
            n_slots: 0,
            free_off: HEADER_LEN as u16,
        }
    }

    /// Number of records so far.
    pub fn num_rows(&self) -> u16 {
        self.n_slots
    }

    /// Free bytes remaining (accounting for the new slot descriptor).
    pub fn free_space(&self) -> usize {
        let used_tail = SLOT_LEN * (self.n_slots as usize + 1);
        PAGE_SIZE
            .saturating_sub(self.free_off as usize)
            .saturating_sub(used_tail)
    }

    /// Append a record; returns the slot, or `None` if it does not fit.
    pub fn push(&mut self, record: &[u8]) -> Option<u16> {
        if record.len() > self.free_space() || record.len() > u16::MAX as usize {
            return None;
        }
        let slot = self.n_slots;
        let off = self.free_off as usize;
        self.buf[off..off + record.len()].copy_from_slice(record);
        let desc_at = PAGE_SIZE - SLOT_LEN * (slot as usize + 1);
        self.buf[desc_at..desc_at + 2].copy_from_slice(&(off as u16).to_le_bytes());
        self.buf[desc_at + 2..desc_at + 4].copy_from_slice(&(record.len() as u16).to_le_bytes());
        self.n_slots += 1;
        self.free_off += record.len() as u16;
        self.buf[0..2].copy_from_slice(&self.n_slots.to_le_bytes());
        self.buf[2..4].copy_from_slice(&self.free_off.to_le_bytes());
        Some(slot)
    }

    /// Finish the page, returning its bytes.
    pub fn finish(self) -> bytes::Bytes {
        self.buf.freeze()
    }
}

impl Default for HeapPageBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Metadata of a fully loaded heap file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeapFile {
    /// Backing file.
    pub file: FileId,
    /// Row schema.
    pub schema: Schema,
    /// Number of pages.
    pub num_pages: u32,
    /// Number of rows.
    pub num_rows: u64,
}

/// Appends encoded rows to a heap file page by page.
///
/// The writer must be the only appender to the file while it is open;
/// RIDs are assigned eagerly from the file length plus the open page.
#[derive(Debug)]
pub struct HeapWriter {
    file: FileId,
    schema: Schema,
    current: HeapPageBuilder,
    pages_flushed: u32,
    rows: u64,
    rowbuf: Vec<u8>,
}

impl HeapWriter {
    /// Start writing rows of `schema` into a fresh file of `store`.
    pub fn create(store: &mut FileStore, schema: Schema) -> Self {
        let file = store.create_file();
        HeapWriter {
            file,
            current: HeapPageBuilder::new(),
            pages_flushed: 0,
            rows: 0,
            rowbuf: vec![0u8; schema.row_width()],
            schema,
        }
    }

    /// The file being written.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Append one row; returns its RID.
    pub fn append(&mut self, store: &mut FileStore, values: &[Value]) -> StorageResult<Rid> {
        self.schema.encode_row(values, &mut self.rowbuf);
        let record = &self.rowbuf[..self.schema.row_width()];
        if let Some(slot) = self.current.push(record) {
            self.rows += 1;
            return Ok(Rid::new(self.pages_flushed, slot));
        }
        // Flush the full page and retry on a fresh one.
        let full = std::mem::take(&mut self.current).finish();
        store.append_page(self.file, full)?;
        self.pages_flushed += 1;
        let slot = self
            .current
            .push(record)
            .ok_or(StorageError::PageOverflow {
                needed: record.len(),
                available: PAGE_SIZE - HEADER_LEN - SLOT_LEN,
            })?;
        self.rows += 1;
        Ok(Rid::new(self.pages_flushed, slot))
    }

    /// Flush the open page (if nonempty) and return the file metadata.
    pub fn finish(mut self, store: &mut FileStore) -> StorageResult<HeapFile> {
        if self.current.num_rows() > 0 {
            let page = std::mem::take(&mut self.current).finish();
            store.append_page(self.file, page)?;
            self.pages_flushed += 1;
        }
        Ok(HeapFile {
            file: self.file,
            schema: self.schema,
            num_pages: self.pages_flushed,
            num_rows: self.rows,
        })
    }
}

/// Fetch and decode the record at `rid` straight from the store
/// (test/debug path; query execution goes through the buffer pool).
pub fn fetch_row(store: &FileStore, heap: &HeapFile, rid: Rid) -> StorageResult<Vec<Value>> {
    let page = store.read_page(PageId::new(heap.file, rid.page))?;
    let view = HeapPage::new(&page)?;
    Ok(heap.schema.decode_row(view.row_bytes(rid.slot)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColType, Column};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", ColType::Int64),
            Column::new("v", ColType::Float64),
        ])
    }

    #[test]
    fn rid_pack_roundtrip() {
        let r = Rid::new(123_456, 789);
        assert_eq!(Rid::unpack(r.pack()), r);
    }

    #[test]
    fn page_builder_roundtrip() {
        let mut b = HeapPageBuilder::new();
        let s0 = b.push(b"hello").unwrap();
        let s1 = b.push(b"world!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        let bytes = b.finish();
        let page = HeapPage::new(&bytes).unwrap();
        assert_eq!(page.num_rows(), 2);
        assert_eq!(page.row_bytes(0).unwrap(), b"hello");
        assert_eq!(page.row_bytes(1).unwrap(), b"world!");
        let all: Vec<_> = page.rows().collect();
        assert_eq!(all, vec![&b"hello"[..], &b"world!"[..]]);
    }

    #[test]
    fn page_fills_up() {
        let mut b = HeapPageBuilder::new();
        let rec = [0u8; 100];
        let mut n = 0;
        while b.push(&rec).is_some() {
            n += 1;
        }
        // 100 bytes payload + 4 bytes slot = 104 per row; header 4 bytes.
        assert_eq!(n, (PAGE_SIZE - HEADER_LEN) / 104);
        assert!(b.free_space() < 104);
    }

    #[test]
    fn dense_rows_match_the_slot_path() {
        let mut b = HeapPageBuilder::new();
        for i in 0..200u8 {
            b.push(&[i; 21]).unwrap();
        }
        let bytes = b.finish();
        let page = HeapPage::new(&bytes).unwrap();
        let dense: Vec<_> = page.rows_dense(21).expect("fixed-width page").collect();
        let slow: Vec<_> = page.rows().collect();
        assert_eq!(dense, slow);
        assert_eq!(page.dense_region(21).unwrap(), slow.concat());
        // Wrong width, variable-length records and an empty page fall
        // back to None — for the region and the iterator alike.
        let mut v = HeapPageBuilder::new();
        v.push(b"short").unwrap();
        v.push(b"a bit longer").unwrap();
        let vbytes = v.finish();
        let ebytes = HeapPageBuilder::new().finish();
        for (bytes, width) in [(&bytes, 20), (&bytes, 0), (&vbytes, 5), (&ebytes, 21)] {
            let page = HeapPage::new(bytes).unwrap();
            assert!(page.dense_region(width).is_none());
            assert!(page.rows_dense(width).is_none());
        }
        // Partly filled fixed-width pages are dense at every fill.
        let mut b = HeapPageBuilder::new();
        for n in 1..=40u8 {
            b.push(&[n; 33]).unwrap();
            let bytes = HeapPageBuilder {
                buf: b.buf.clone(),
                ..HeapPageBuilder::new()
            }
            .finish();
            let page = HeapPage::new(&bytes).unwrap();
            let rows: Vec<_> = page.rows().collect();
            assert_eq!(rows.len(), n as usize);
            assert_eq!(page.dense_region(33).unwrap(), rows.concat());
            assert!(page.rows_dense(33).unwrap().eq(rows.iter().copied()));
        }
    }

    #[test]
    fn slot_out_of_range_errors() {
        let mut b = HeapPageBuilder::new();
        b.push(b"x").unwrap();
        let bytes = b.finish();
        let page = HeapPage::new(&bytes).unwrap();
        assert!(page.row_bytes(1).is_err());
    }

    #[test]
    fn writer_spills_across_pages_and_rids_are_stable() {
        let mut store = FileStore::new(16);
        let s = schema();
        let mut w = HeapWriter::create(&mut store, s.clone());
        let n = 2000u64;
        let mut rids = Vec::new();
        for i in 0..n {
            let rid = w
                .append(&mut store, &[Value::I64(i as i64), Value::F64(i as f64)])
                .unwrap();
            rids.push(rid);
        }
        let heap = w.finish(&mut store).unwrap();
        assert_eq!(heap.num_rows, n);
        assert!(heap.num_pages > 1);
        assert_eq!(store.num_pages(heap.file).unwrap(), heap.num_pages);
        // Spot-check RIDs resolve to the right rows.
        for &i in &[0u64, 1, 511, 512, 1999] {
            let row = fetch_row(&store, &heap, rids[i as usize]).unwrap();
            assert_eq!(row[0], Value::I64(i as i64));
        }
        // Pages are dense: every page but possibly the last is full.
        let rows_per_page = (PAGE_SIZE - HEADER_LEN) / (s.row_width() + SLOT_LEN);
        for p in 0..heap.num_pages - 1 {
            let bytes = store.read_page(PageId::new(heap.file, p)).unwrap();
            assert_eq!(
                HeapPage::new(&bytes).unwrap().num_rows() as usize,
                rows_per_page
            );
        }
    }

    #[test]
    fn corrupt_pages_are_rejected() {
        assert!(HeapPage::new(&[0u8; 12]).is_err());
        let mut bytes = vec![0u8; PAGE_SIZE];
        bytes[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(HeapPage::new(&bytes).is_err());
    }
}
