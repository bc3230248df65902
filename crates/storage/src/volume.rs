//! Physical volume layout.
//!
//! Files grow in extent-sized runs. Each time a file touches a new extent,
//! the volume hands it the next free physical run. Two files (or two MDC
//! cells writing to the same file through block allocation) that grow
//! concurrently therefore interleave on the physical address space — which
//! is what makes index-order traversal seek, and what the scan-sharing
//! machinery ultimately saves.

use crate::page::{FileId, IdMap, PageId};

/// Maps logical file pages to physical page addresses, allocating
/// extent-sized contiguous runs on first touch.
#[derive(Debug)]
pub struct Volume {
    extent_pages: u32,
    next_base: u64,
    extents: IdMap<(FileId, u32), u64>,
}

impl Volume {
    /// Create an empty volume allocating runs of `extent_pages` pages.
    pub fn new(extent_pages: u32) -> Self {
        assert!(extent_pages > 0, "extent size must be positive");
        Volume {
            extent_pages,
            next_base: 0,
            extents: IdMap::default(),
        }
    }

    /// Number of pages per extent run.
    pub fn extent_pages(&self) -> u32 {
        self.extent_pages
    }

    /// Physical address of `id`, allocating the containing extent if the
    /// file has never touched it. Used on the write/append path.
    pub fn ensure(&mut self, id: PageId) -> u64 {
        let extent_no = id.page / self.extent_pages;
        let within = (id.page % self.extent_pages) as u64;
        let extent_pages = self.extent_pages as u64;
        let next_base = &mut self.next_base;
        let base = *self.extents.entry((id.file, extent_no)).or_insert_with(|| {
            let b = *next_base;
            *next_base += extent_pages;
            b
        });
        base + within
    }

    /// Physical address of `id` if its extent has been allocated.
    pub fn lookup(&self, id: PageId) -> Option<u64> {
        let extent_no = id.page / self.extent_pages;
        let within = (id.page % self.extent_pages) as u64;
        self.extents
            .get(&(id.file, extent_no))
            .map(|base| base + within)
    }

    /// Total physical pages allocated so far.
    pub fn allocated_pages(&self) -> u64 {
        self.next_base
    }

    /// The allocation state as `(file, extent_no, base)` rows, sorted —
    /// used to persist a volume.
    pub fn entries(&self) -> Vec<(FileId, u32, u64)> {
        let mut out: Vec<(FileId, u32, u64)> =
            self.extents.iter().map(|(&(f, e), &b)| (f, e, b)).collect();
        out.sort();
        out
    }

    /// Rebuild a volume from persisted state.
    pub fn from_entries(extent_pages: u32, entries: &[(FileId, u32, u64)]) -> Self {
        assert!(extent_pages > 0, "extent size must be positive");
        let mut extents = IdMap::with_capacity_and_hasher(entries.len(), Default::default());
        let mut next_base = 0u64;
        for &(f, e, b) in entries {
            extents.insert((f, e), b);
            next_base = next_base.max(b + extent_pages as u64);
        }
        Volume {
            extent_pages,
            next_base,
            extents,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(file: u32, page: u32) -> PageId {
        PageId::new(FileId(file), page)
    }

    #[test]
    fn pages_within_extent_are_contiguous() {
        let mut v = Volume::new(4);
        let a = v.ensure(pid(0, 0));
        let b = v.ensure(pid(0, 1));
        let c = v.ensure(pid(0, 3));
        assert_eq!(b, a + 1);
        assert_eq!(c, a + 3);
    }

    #[test]
    fn interleaved_growth_interleaves_extents() {
        let mut v = Volume::new(4);
        let a0 = v.ensure(pid(0, 0)); // file 0, extent 0
        let b0 = v.ensure(pid(1, 0)); // file 1, extent 0
        let a4 = v.ensure(pid(0, 4)); // file 0, extent 1
        assert_eq!(a0, 0);
        assert_eq!(b0, 4);
        assert_eq!(a4, 8);
        // File 0's two extents are NOT physically adjacent.
        assert_ne!(a4, a0 + 4);
        assert_eq!(v.allocated_pages(), 12);
    }

    #[test]
    fn ensure_is_idempotent() {
        let mut v = Volume::new(8);
        let first = v.ensure(pid(2, 5));
        let again = v.ensure(pid(2, 5));
        assert_eq!(first, again);
        assert_eq!(v.allocated_pages(), 8);
    }

    #[test]
    fn entries_roundtrip_preserves_layout() {
        let mut v = Volume::new(4);
        v.ensure(pid(0, 0));
        v.ensure(pid(1, 0));
        v.ensure(pid(0, 4));
        let rebuilt = Volume::from_entries(4, &v.entries());
        assert_eq!(rebuilt.allocated_pages(), v.allocated_pages());
        for id in [pid(0, 0), pid(0, 5), pid(1, 3)] {
            assert_eq!(rebuilt.lookup(id), v.lookup(id));
        }
    }

    #[test]
    fn lookup_does_not_allocate() {
        let mut v = Volume::new(8);
        assert_eq!(v.lookup(pid(0, 0)), None);
        v.ensure(pid(0, 0));
        assert_eq!(v.lookup(pid(0, 7)), Some(7));
        assert_eq!(v.lookup(pid(0, 8)), None);
        assert_eq!(v.allocated_pages(), 8);
    }
}
