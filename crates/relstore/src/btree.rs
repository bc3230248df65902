//! A paged, read-only B+ tree over `(i64 key, u64 payload)` entries.
//!
//! Duplicates are supported by ordering entries on the *composite*
//! `(key, payload)` — the classic trick for secondary indexes. The same
//! tree therefore serves as
//!
//! * a **RID index**: payload = packed [`crate::heap::Rid`], and
//! * an **MDC block index**: payload = block id (a key maps to the list of
//!   blocks holding rows of that clustering-key cell, cf. §3.4 of the
//!   paper).
//!
//! A tree is built once, by [`BTree::bulk_load`] from sorted entries at
//! load time, and only read after that: the papers' workloads never
//! insert or delete an index entry.
//!
//! Leaves are chained left-to-right so a range scan is a single descent
//! followed by a linked-list walk — this chain is exactly the "index
//! order" along which the papers define scan *location*.
//!
//! Index pages are read directly from the [`FileStore`] (see the crate
//! docs for why index I/O is not modeled). Node layout, little-endian:
//!
//! ```text
//! leaf:     [kind=0 u8][pad u8][n u16][next_leaf u32] then n × (key i64, payload u64)
//! internal: [kind=1 u8][pad u8][n u16][child0   u32] then n × (key i64, payload u64, child u32)
//! ```
//!
//! In an internal node, pair `i` is the smallest composite entry of
//! subtree `child(i+1)`; a search descends into the rightmost child whose
//! separator is `<=` the probe. A page that breaks this layout, or a
//! walk that could not end, is refused as [`StorageError::Corrupt`].

use bytes::BytesMut;
use scanshare_storage::{FileId, FileStore, PageId, StorageError, StorageResult, PAGE_SIZE};

const HEADER: usize = 8;
const LEAF_ENTRY: usize = 16;
const INT_ENTRY: usize = 20;
/// Maximum entries in a leaf node.
pub const LEAF_CAP: usize = (PAGE_SIZE - HEADER) / LEAF_ENTRY;
/// Maximum separator entries in an internal node.
pub const INT_CAP: usize = (PAGE_SIZE - HEADER) / INT_ENTRY;
const NO_PAGE: u32 = u32::MAX;
/// Levels a descent may visit. A bulk-loaded tree has at most 5: u32
/// page numbers allow fewer than 2³² leaves, and each internal level
/// divides the level below by its 369 children per node.
const MAX_HEIGHT: usize = 5;

/// One index entry: a key and its payload (RID or block id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Entry {
    /// The indexed key.
    pub key: i64,
    /// The payload, compared after the key to order duplicates.
    pub payload: u64,
}

impl Entry {
    /// Construct an entry.
    pub const fn new(key: i64, payload: u64) -> Self {
        Entry { key, payload }
    }

    /// The smallest possible entry with this key (for range probes).
    pub const fn min_for_key(key: i64) -> Self {
        Entry { key, payload: 0 }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<Entry>,
        next: u32,
    },
    Internal {
        /// child0, then (separator, child) pairs.
        child0: u32,
        seps: Vec<(Entry, u32)>,
    },
}

fn corrupt(id: PageId, what: impl std::fmt::Display) -> StorageError {
    StorageError::Corrupt(format!("B+ tree page {id}: {what}"))
}

impl Node {
    /// Decode page `id`, refusing an unknown node kind or an entry count
    /// the page cannot hold.
    fn decode(bytes: &[u8], id: PageId) -> StorageResult<Node> {
        let kind = bytes[0];
        let n = u16::from_le_bytes(bytes[2..4].try_into().unwrap()) as usize;
        let w = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let cap = match kind {
            0 => LEAF_CAP,
            1 => INT_CAP,
            _ => return Err(corrupt(id, format!("unknown node kind {kind}"))),
        };
        if n > cap {
            return Err(corrupt(id, format!("{n} entries, at most {cap} fit")));
        }
        if kind == 0 {
            let mut entries = Vec::with_capacity(n);
            for i in 0..n {
                let off = HEADER + i * LEAF_ENTRY;
                entries.push(Entry {
                    key: i64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()),
                    payload: u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap()),
                });
            }
            Ok(Node::Leaf { entries, next: w })
        } else {
            let mut seps = Vec::with_capacity(n);
            for i in 0..n {
                let off = HEADER + i * INT_ENTRY;
                let key = i64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                let payload = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
                let child = u32::from_le_bytes(bytes[off + 16..off + 20].try_into().unwrap());
                seps.push((Entry { key, payload }, child));
            }
            Ok(Node::Internal { child0: w, seps })
        }
    }

    fn encode(&self) -> bytes::Bytes {
        let mut buf = BytesMut::zeroed(PAGE_SIZE);
        match self {
            Node::Leaf { entries, next } => {
                buf[0] = 0;
                buf[2..4].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                buf[4..8].copy_from_slice(&next.to_le_bytes());
                for (i, e) in entries.iter().enumerate() {
                    let off = HEADER + i * LEAF_ENTRY;
                    buf[off..off + 8].copy_from_slice(&e.key.to_le_bytes());
                    buf[off + 8..off + 16].copy_from_slice(&e.payload.to_le_bytes());
                }
            }
            Node::Internal { child0, seps } => {
                buf[0] = 1;
                buf[2..4].copy_from_slice(&(seps.len() as u16).to_le_bytes());
                buf[4..8].copy_from_slice(&child0.to_le_bytes());
                for (i, (e, c)) in seps.iter().enumerate() {
                    let off = HEADER + i * INT_ENTRY;
                    buf[off..off + 8].copy_from_slice(&e.key.to_le_bytes());
                    buf[off + 8..off + 16].copy_from_slice(&e.payload.to_le_bytes());
                    buf[off + 16..off + 20].copy_from_slice(&c.to_le_bytes());
                }
            }
        }
        buf.freeze()
    }
}

/// A paged B+ tree rooted in a [`FileStore`] file, bulk-loaded once and
/// then only read.
///
/// ```
/// use scanshare_relstore::{BTree, Entry};
/// use scanshare_storage::FileStore;
///
/// let mut store = FileStore::new(16);
/// let sorted = [Entry::new(5, 100), Entry::new(5, 101), Entry::new(9, 102)];
/// let tree = BTree::bulk_load(&mut store, &sorted).unwrap(); // duplicate key 5
/// assert_eq!(tree.range(&store, 5, 8).unwrap(), sorted[..2]);
/// assert_eq!(tree.num_entries(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct BTree {
    file: FileId,
    root: u32,
    entries: u64,
}

impl BTree {
    /// The backing file.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Total entries in the tree.
    pub fn num_entries(&self) -> u64 {
        self.entries
    }

    fn read(&self, store: &FileStore, page: u32) -> StorageResult<Node> {
        let id = PageId::new(self.file, page);
        Node::decode(&store.read_page(id)?, id)
    }

    /// Bulk-load a tree from entries that are already sorted by
    /// `(key, payload)`. This is how every index is built, once, at load
    /// time.
    pub fn bulk_load(store: &mut FileStore, sorted: &[Entry]) -> StorageResult<Self> {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
        let file = store.create_file();
        // Reserve page 0 for the root; the top node is copied there last.
        let root_placeholder = Node::Leaf {
            entries: Vec::new(),
            next: NO_PAGE,
        };
        let root = store.append_page(file, root_placeholder.encode())?.page;
        let tree = BTree {
            file,
            root,
            entries: sorted.len() as u64,
        };
        if sorted.is_empty() {
            return Ok(tree);
        }

        // Fill leaves and internal nodes to 90 %. That fill sets how many
        // pages an index takes, and so, through the volume's extent
        // allocation, the page address of everything stored after it:
        // every measured seek depends on it.
        let per_leaf = (LEAF_CAP * 9 / 10).max(1);
        let n_leaves = sorted.len().div_ceil(per_leaf);
        let mut level: Vec<(Entry, u32)> = Vec::with_capacity(n_leaves); // (min entry, page)
        for (i, chunk) in sorted.chunks(per_leaf).enumerate() {
            // Pages are appended in order: the next leaf takes the next page.
            let page = store.num_pages(file)?;
            let next = if i + 1 < n_leaves { page + 1 } else { NO_PAGE };
            let node = Node::Leaf {
                entries: chunk.to_vec(),
                next,
            };
            store.append_page(file, node.encode())?;
            level.push((chunk[0], page));
        }

        // Build internal levels bottom-up.
        let per_int = (INT_CAP * 9 / 10).max(2);
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for group in level.chunks(per_int + 1) {
                let child0 = group[0].1;
                let seps: Vec<(Entry, u32)> = group[1..].to_vec();
                let node = Node::Internal { child0, seps };
                let page = store.append_page(file, node.encode())?.page;
                next_level.push((group[0].0, page));
            }
            level = next_level;
        }

        // Copy the single top node into the reserved root page.
        let top = level[0].1;
        let top_bytes = store.read_page(PageId::new(file, top))?;
        store.write_page(PageId::new(file, root), top_bytes)?;
        Ok(tree)
    }

    /// Find the leaf page and position of the first entry `>= probe`.
    fn seek(&self, store: &FileStore, probe: Entry) -> StorageResult<(u32, usize)> {
        let mut page = self.root;
        for _ in 0..MAX_HEIGHT {
            match self.read(store, page)? {
                Node::Internal { child0, seps } => {
                    let idx = seps.partition_point(|(s, _)| *s <= probe);
                    page = if idx == 0 { child0 } else { seps[idx - 1].1 };
                }
                Node::Leaf { entries, .. } => {
                    let pos = entries.partition_point(|e| *e < probe);
                    return Ok((page, pos));
                }
            }
        }
        let root = PageId::new(self.file, self.root);
        Err(corrupt(root, format!("no leaf within {MAX_HEIGHT} levels")))
    }

    /// Collect every entry with `lo <= key <= hi`, in `(key, payload)`
    /// order. This materializes the scan's "index order" up front — the
    /// engine's scan operators iterate the result while the sharing
    /// manager reasons about positions within it.
    pub fn range(&self, store: &FileStore, lo: i64, hi: i64) -> StorageResult<Vec<Entry>> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        let (mut page, mut pos) = self.seek(store, Entry::min_for_key(lo))?;
        loop {
            let id = PageId::new(self.file, page);
            let Node::Leaf { entries, next } = self.read(store, page)? else {
                return Err(corrupt(id, "the leaf chain reaches an internal node"));
            };
            for e in &entries[pos..] {
                if e.key > hi {
                    return Ok(out);
                }
                out.push(*e);
            }
            if next == NO_PAGE {
                return Ok(out);
            }
            // Bulk loading appends the leaves in chain order.
            if next <= page {
                return Err(corrupt(id, format!("next leaf {next} does not ascend")));
            }
            page = next;
            pos = 0;
        }
    }

    /// All entries in the tree, in order.
    pub fn all(&self, store: &FileStore) -> StorageResult<Vec<Entry>> {
        self.range(store, i64::MIN, i64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> FileStore {
        FileStore::new(16)
    }

    #[test]
    fn empty_tree_has_no_entries() {
        let mut st = store();
        let t = BTree::bulk_load(&mut st, &[]).unwrap();
        assert_eq!(t.all(&st).unwrap(), vec![]);
        assert_eq!(t.range(&st, 0, 100).unwrap(), vec![]);
        assert_eq!(st.num_pages(t.file()).unwrap(), 1);
    }

    #[test]
    fn duplicates_are_ordered_by_payload_across_leaves() {
        let mut st = store();
        // Key 42 fills three leaves between smaller and larger keys.
        let entries: Vec<Entry> = (0..LEAF_CAP as u64 * 3)
            .map(|p| Entry::new(42, p))
            .chain([Entry::new(43, 0)])
            .collect();
        let mut sorted = vec![Entry::new(41, 7)];
        sorted.extend(&entries);
        let t = BTree::bulk_load(&mut st, &sorted).unwrap();
        assert_eq!(t.range(&st, 42, 42).unwrap(), entries[..entries.len() - 1]);
        assert_eq!(t.range(&st, 42, 43).unwrap(), entries);
        assert_eq!(t.all(&st).unwrap(), sorted);
        assert_eq!(t.num_entries(), sorted.len() as u64);
    }

    #[test]
    fn single_leaf_is_copied_into_the_root() {
        let mut st = store();
        let entries = vec![Entry::new(1, 1), Entry::new(2, 2)];
        let t = BTree::bulk_load(&mut st, &entries).unwrap();
        assert_eq!(t.all(&st).unwrap(), entries);
        assert_eq!(st.num_pages(t.file()).unwrap(), 2);
        let page = |p| st.read_page(PageId::new(t.file(), p)).unwrap();
        assert_eq!(page(0), page(1));
    }

    #[test]
    fn range_bounds_are_inclusive() {
        let mut st = store();
        let entries: Vec<Entry> = (0..100).map(|k| Entry::new(k, k as u64)).collect();
        let t = BTree::bulk_load(&mut st, &entries).unwrap();
        assert_eq!(t.range(&st, 10, 12).unwrap().len(), 3);
        assert_eq!(t.range(&st, 99, 200).unwrap().len(), 1);
        assert_eq!(t.range(&st, -5, -1).unwrap().len(), 0);
        assert_eq!(t.range(&st, 7, 3).unwrap().len(), 0);
    }

    /// A two-level tree over `3 × LEAF_CAP` entries: the root at page 0,
    /// four leaves at pages 1–4, and their parent at page 5.
    fn two_levels() -> (FileStore, BTree) {
        let mut st = store();
        let entries: Vec<Entry> = (0..LEAF_CAP as i64 * 3).map(|k| Entry::new(k, 0)).collect();
        let t = BTree::bulk_load(&mut st, &entries).unwrap();
        (st, t)
    }

    fn patch(st: &mut FileStore, t: &BTree, page: u32, f: impl FnOnce(&mut [u8])) {
        let id = PageId::new(t.file(), page);
        let mut bytes = st.read_page(id).unwrap().to_vec();
        f(&mut bytes);
        st.write_page(id, bytes.into()).unwrap();
    }

    fn corrupt_message(st: &FileStore, t: &BTree) -> String {
        match t.all(st) {
            Err(StorageError::Corrupt(msg)) => msg,
            other => panic!("expected a corrupt-page error, got {other:?}"),
        }
    }

    #[test]
    fn undecodable_pages_are_corrupt() {
        let (mut st, t) = two_levels();
        patch(&mut st, &t, 0, |b| b[0] = 7);
        assert!(corrupt_message(&st, &t).contains("unknown node kind 7"));

        let (mut st, t) = two_levels();
        patch(&mut st, &t, 1, |b| {
            b[2..4].copy_from_slice(&60_000u16.to_le_bytes())
        });
        let msg = corrupt_message(&st, &t);
        assert!(msg.contains("60000 entries, at most 511 fit"), "{msg}");

        let (mut st, t) = two_levels();
        let over = INT_CAP as u16 + 1;
        patch(&mut st, &t, 0, |b| {
            b[2..4].copy_from_slice(&over.to_le_bytes())
        });
        assert!(corrupt_message(&st, &t).contains("at most 409 fit"));
    }

    #[test]
    fn walks_that_could_not_end_are_corrupt() {
        // A leaf whose `next` points back at itself.
        let (mut st, t) = two_levels();
        patch(&mut st, &t, 2, |b| {
            b[4..8].copy_from_slice(&2u32.to_le_bytes())
        });
        assert!(corrupt_message(&st, &t).contains("next leaf 2 does not ascend"));

        // A root whose first child is the root itself.
        let (mut st, t) = two_levels();
        patch(&mut st, &t, 0, |b| {
            b[4..8].copy_from_slice(&0u32.to_le_bytes())
        });
        assert!(corrupt_message(&st, &t).contains("no leaf within 5 levels"));

        // A leaf chain that runs into an internal node.
        let (mut st, t) = two_levels();
        let top = st.num_pages(t.file()).unwrap() - 1;
        patch(&mut st, &t, 1, |b| {
            b[4..8].copy_from_slice(&top.to_le_bytes())
        });
        assert!(corrupt_message(&st, &t).contains("reaches an internal node"));
    }
}
