//! Page and file identifiers, and the raw page buffer type.
//!
//! The papers run with 32 KB pages; we keep the same layout constants but
//! use an 8 KB in-memory page so that a TPC-H-shaped workload fits in RAM.
//! All experiments are driven by page *counts* and the pool/table ratio,
//! so the absolute page size only scales the reported byte totals.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use bytes::{Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// Size of a page in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page file (heap file, index file, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub u32);

/// Identifier of a page within the volume: a file plus a page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId {
    /// The owning file.
    pub file: FileId,
    /// Zero-based page number within the file.
    pub page: u32,
}

impl PageId {
    /// Construct a page id.
    pub const fn new(file: FileId, page: u32) -> Self {
        PageId { file, page }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file.0, self.page)
    }
}

/// Hasher for keys made of small integers the program issues itself —
/// page, file, extent, scan and anchor ids. Each integer is folded in
/// with one multiply; SipHash's protection against keys crafted to
/// collide buys nothing for ids no outside input chooses.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.wrapping_add(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        // A product's high bits are its well-mixed ones; the table picks
        // a bucket by the low bits and tags it with the top seven.
        self.0.rotate_left(26)
    }
}

/// A hash map keyed by ids (see [`IdHasher`]).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// An immutable snapshot of a page's bytes, as handed out by the buffer
/// pool. `Bytes` is cheaply cloneable so multiple fixed readers share one
/// allocation.
pub type PageBuf = Bytes;

/// Allocate a zeroed, mutable page buffer of [`PAGE_SIZE`] bytes.
pub fn zeroed_page() -> BytesMut {
    BytesMut::zeroed(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_ordering_is_file_major() {
        let a = PageId::new(FileId(0), 99);
        let b = PageId::new(FileId(1), 0);
        assert!(a < b);
    }

    #[test]
    fn zeroed_page_has_page_size() {
        let p = zeroed_page();
        assert_eq!(p.len(), PAGE_SIZE);
        assert!(p.iter().all(|&b| b == 0));
    }

    #[test]
    fn id_hasher_tells_sparse_and_neighbouring_ids_apart() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hash = |id: PageId| BuildHasherDefault::<IdHasher>::default().hash_one(id);
        // File and page are both folded in, in order.
        assert_ne!(
            hash(PageId::new(FileId(1), 2)),
            hash(PageId::new(FileId(2), 1))
        );
        // A table of 64 buckets, indexed by the low bits, takes 64
        // neighbouring pages without a pile-up — and 64 pages that are
        // 2^16 or 2^31 apart, which agree in those bits before mixing.
        for stride in [1u32, 1 << 16, 1 << 31] {
            let buckets: std::collections::HashSet<u64> = (0..64u32)
                .map(|i| PageId::new(FileId(u32::MAX), i.wrapping_mul(stride) ^ (i >> 1)))
                .map(|id| hash(id) & 63)
                .collect();
            assert!(buckets.len() >= 32, "stride {stride}: {buckets:?}");
        }
        let mut map: IdMap<PageId, u32> = IdMap::default();
        map.insert(PageId::new(FileId(u32::MAX), u32::MAX), 7);
        assert_eq!(map.get(&PageId::new(FileId(u32::MAX), u32::MAX)), Some(&7));
        assert_eq!(map.get(&PageId::new(FileId(u32::MAX), 0)), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(PageId::new(FileId(3), 17).to_string(), "3:17");
    }
}
