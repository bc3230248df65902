//! The backing page store — the "platters" of the simulated disk.
//!
//! [`FileStore`] owns the authoritative bytes of every page of every file,
//! plus the [`Volume`] that assigns them physical addresses. It performs no
//! timing: the [`crate::disk::Disk`] model decides *when* a read completes,
//! the store decides *what* the bytes are. Loading a database is a direct
//! store operation (bulk loads bypass the buffer pool, as in real engines).

use bytes::Bytes;

use crate::error::{StorageError, StorageResult};
use crate::page::{FileId, PageBuf, PageId, PAGE_SIZE};
use crate::volume::Volume;

/// In-memory page files plus their physical layout.
#[derive(Debug)]
pub struct FileStore {
    volume: Volume,
    files: Vec<Vec<Bytes>>,
}

impl FileStore {
    /// Create a store whose volume allocates runs of `extent_pages` pages.
    pub fn new(extent_pages: u32) -> Self {
        FileStore {
            volume: Volume::new(extent_pages),
            files: Vec::new(),
        }
    }

    /// Create a new, empty file.
    pub fn create_file(&mut self) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(Vec::new());
        id
    }

    /// Number of pages in `file`.
    pub fn num_pages(&self, file: FileId) -> StorageResult<u32> {
        self.file(file).map(|f| f.len() as u32)
    }

    /// Append a page to `file`, assigning it the next page number and a
    /// physical address. The buffer must be exactly [`PAGE_SIZE`] bytes.
    pub fn append_page(&mut self, file: FileId, data: Bytes) -> StorageResult<PageId> {
        if data.len() != PAGE_SIZE {
            return Err(StorageError::PageOverflow {
                needed: data.len(),
                available: PAGE_SIZE,
            });
        }
        let pages = self
            .files
            .get_mut(file.0 as usize)
            .ok_or(StorageError::UnknownFile(file))?;
        let id = PageId::new(file, pages.len() as u32);
        pages.push(data);
        self.volume.ensure(id);
        Ok(id)
    }

    /// Overwrite an existing page in place.
    pub fn write_page(&mut self, id: PageId, data: Bytes) -> StorageResult<()> {
        if data.len() != PAGE_SIZE {
            return Err(StorageError::PageOverflow {
                needed: data.len(),
                available: PAGE_SIZE,
            });
        }
        let file_pages = self.num_pages(id.file)?;
        let pages = &mut self.files[id.file.0 as usize];
        let slot = pages
            .get_mut(id.page as usize)
            .ok_or(StorageError::PageOutOfBounds { id, file_pages })?;
        *slot = data;
        Ok(())
    }

    /// Read the authoritative bytes of a page (no timing; cheap clone).
    pub fn read_page(&self, id: PageId) -> StorageResult<PageBuf> {
        let pages = self.file(id.file)?;
        pages
            .get(id.page as usize)
            .cloned()
            .ok_or(StorageError::PageOutOfBounds {
                id,
                file_pages: pages.len() as u32,
            })
    }

    /// Physical address of a page on the volume.
    pub fn physical(&self, id: PageId) -> StorageResult<u64> {
        // Bounds-check first so missing pages and missing extents are
        // reported the same way.
        let pages = self.file(id.file)?;
        if id.page as usize >= pages.len() {
            return Err(StorageError::PageOutOfBounds {
                id,
                file_pages: pages.len() as u32,
            });
        }
        self.volume.lookup(id).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "page {id} exists but its extent was never allocated"
            ))
        })
    }

    fn file(&self, file: FileId) -> StorageResult<&Vec<Bytes>> {
        self.files
            .get(file.0 as usize)
            .ok_or(StorageError::UnknownFile(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::zeroed_page;

    fn page_with(tag: u8) -> Bytes {
        let mut p = zeroed_page();
        p[0] = tag;
        p.freeze()
    }

    #[test]
    fn append_then_read_roundtrips() {
        let mut s = FileStore::new(4);
        let f = s.create_file();
        let id = s.append_page(f, page_with(42)).unwrap();
        assert_eq!(id, PageId::new(f, 0));
        assert_eq!(s.read_page(id).unwrap()[0], 42);
        assert_eq!(s.num_pages(f).unwrap(), 1);
    }

    #[test]
    fn wrong_sized_page_is_rejected() {
        let mut s = FileStore::new(4);
        let f = s.create_file();
        let err = s.append_page(f, Bytes::from_static(b"tiny")).unwrap_err();
        assert!(matches!(err, StorageError::PageOverflow { .. }));
    }

    #[test]
    fn write_page_overwrites_in_place() {
        let mut s = FileStore::new(4);
        let f = s.create_file();
        let id = s.append_page(f, page_with(1)).unwrap();
        s.write_page(id, page_with(2)).unwrap();
        assert_eq!(s.read_page(id).unwrap()[0], 2);
    }

    #[test]
    fn out_of_bounds_reads_error() {
        let mut s = FileStore::new(4);
        let f = s.create_file();
        s.append_page(f, page_with(0)).unwrap();
        let err = s.read_page(PageId::new(f, 1)).unwrap_err();
        assert!(matches!(err, StorageError::PageOutOfBounds { .. }));
        let err = s.read_page(PageId::new(FileId(9), 0)).unwrap_err();
        assert!(matches!(err, StorageError::UnknownFile(_)));
    }

    #[test]
    fn physical_addresses_follow_the_volume() {
        let mut s = FileStore::new(2);
        let f0 = s.create_file();
        let f1 = s.create_file();
        // Interleave growth: f0 gets pages 0..2 (extent 0), f1 page 0, f0 page 2.
        s.append_page(f0, page_with(0)).unwrap();
        s.append_page(f0, page_with(1)).unwrap();
        s.append_page(f1, page_with(2)).unwrap();
        s.append_page(f0, page_with(3)).unwrap();
        assert_eq!(s.physical(PageId::new(f0, 0)).unwrap(), 0);
        assert_eq!(s.physical(PageId::new(f0, 1)).unwrap(), 1);
        assert_eq!(s.physical(PageId::new(f1, 0)).unwrap(), 2);
        assert_eq!(s.physical(PageId::new(f0, 2)).unwrap(), 4);
        assert!(s.physical(PageId::new(f0, 3)).is_err());
    }
}
