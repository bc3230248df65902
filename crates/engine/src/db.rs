//! The database facade: a page store plus a catalog of loaded tables.

use std::collections::HashMap;
use std::sync::Arc;

use scanshare_relstore::{
    BTree, Entry, HeapWriter, MdcTableBuilder, Rid, Schema, TableKind, TableMeta, Value,
};
use scanshare_storage::{FileStore, StorageResult};

/// An in-memory database: the authoritative pages of every table plus
/// table metadata. Runs borrow it immutably — the executor only reads
/// table pages, all run-local state (pool, disk, manager) lives in the
/// run itself, so base and scan-sharing runs see identical data.
#[derive(Debug)]
pub struct Database {
    store: FileStore,
    /// Each table, with its RID index decoded when it has one: decoded
    /// once and shared by every scan of the index. Index I/O is not
    /// modelled, so a scan reads its key range straight out of this copy.
    tables: HashMap<String, (TableMeta, Option<RidIndex>)>,
}

/// A decoded index's entries in `(key, payload)` order, shared by the
/// scans that read them.
pub(crate) type IndexEntries = Arc<[Entry]>;

/// A decoded RID index: its entries, and the runs they fall into — the
/// longest stretches of consecutive entries whose RIDs share a page, in
/// order. A RID step takes whole runs and checks each once.
#[derive(Debug)]
pub(crate) struct RidIndex {
    pub(crate) entries: IndexEntries,
    pub(crate) runs: Arc<[PageRun]>,
}

/// One run of a [`RidIndex`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageRun {
    /// The position in the index one past the run's last entry.
    pub(crate) end: u32,
    /// The largest slot a RID of the run names.
    pub(crate) max_slot: u16,
}

impl From<Vec<Entry>> for RidIndex {
    /// The index of `entries`, which are in `(key, payload)` order, with
    /// its run table.
    fn from(entries: Vec<Entry>) -> RidIndex {
        let rid = |e: &Entry| Rid::unpack(e.payload);
        let mut end = 0;
        let runs = (entries.chunk_by(|a, b| rid(a).page == rid(b).page))
            .map(|run| {
                end += run.len();
                PageRun {
                    end: u32::try_from(end).expect("a RID index of fewer than 2^32 entries"),
                    max_slot: run
                        .iter()
                        .map(|e| rid(e).slot)
                        .max()
                        .expect("a run has RIDs"),
                }
            })
            .collect();
        RidIndex {
            entries: entries.into(),
            runs,
        }
    }
}

impl Database {
    /// Create an empty database whose volume allocates `extent_pages`
    /// page runs.
    pub fn new(extent_pages: u32) -> Self {
        Database {
            store: FileStore::new(extent_pages),
            tables: HashMap::new(),
        }
    }

    /// The backing page store.
    pub fn store(&self) -> &FileStore {
        &self.store
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&TableMeta> {
        self.tables.get(name).map(|(t, _)| t)
    }

    /// Table `name`'s RID index, decoded, if it has one.
    pub(crate) fn rid_index(&self, name: &str) -> Option<&RidIndex> {
        self.tables.get(name)?.1.as_ref()
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        names.sort();
        names
    }

    /// Register table `name`, with its RID index and that index's sorted
    /// entries, if any (their run table is built here).
    fn register(
        &mut self,
        name: String,
        kind: TableKind,
        index: Option<(BTree, Vec<Entry>)>,
    ) -> &TableMeta {
        let (rid_index, entries) = index.map_or((None, None), |(b, e)| (Some(b), Some(e.into())));
        let meta = TableMeta {
            name: name.clone(),
            kind,
            rid_index,
        };
        let slot = self.tables.entry(name).insert_entry((meta, entries));
        &slot.into_mut().0
    }

    /// Bulk-load a heap table from rows in insertion order.
    pub fn create_heap_table<I, R>(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        rows: I,
    ) -> StorageResult<&TableMeta>
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[Value]>,
    {
        let mut w = HeapWriter::create(&mut self.store, schema);
        for row in rows {
            w.append(&mut self.store, row.as_ref())?;
        }
        let heap = w.finish(&mut self.store)?;
        Ok(self.register(name.into(), TableKind::Heap(heap), None))
    }

    /// Bulk-load a heap table and build a secondary RID index on the
    /// `Int32` column `key_col`. This is the general index-scan substrate
    /// of the papers' §3.2: the index orders keys, but the RIDs behind a
    /// key range are scattered across the heap in insertion order, so a
    /// key-ordered scan seeks.
    pub fn create_heap_table_with_index<I>(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        key_col: usize,
        rows: I,
    ) -> StorageResult<&TableMeta>
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        let mut w = HeapWriter::create(&mut self.store, schema);
        let mut entries: Vec<Entry> = Vec::new();
        for row in rows {
            let key = match row[key_col] {
                Value::I32(k) => k as i64,
                Value::I64(k) => k,
                _ => panic!("RID index key column must be an integer"),
            };
            let rid = w.append(&mut self.store, &row)?;
            entries.push(Entry::new(key, rid.pack()));
        }
        let heap = w.finish(&mut self.store)?;
        entries.sort();
        let index = BTree::bulk_load(&mut self.store, &entries)?;
        Ok(self.register(name.into(), TableKind::Heap(heap), Some((index, entries))))
    }

    /// Bulk-load an MDC table from `(cell key, row)` pairs in insertion
    /// order. Rows of different cells may arrive interleaved — that is
    /// what produces the realistic interleaved block layout.
    pub fn create_mdc_table<I, R>(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        block_pages: u32,
        rows: I,
    ) -> StorageResult<&TableMeta>
    where
        I: IntoIterator<Item = (i64, R)>,
        R: AsRef<[Value]>,
    {
        let mut b = MdcTableBuilder::create(&mut self.store, schema, block_pages);
        for (cell, row) in rows {
            b.append(&mut self.store, cell, row.as_ref())?;
        }
        let table = b.finish(&mut self.store)?;
        Ok(self.register(name.into(), TableKind::Mdc(table), None))
    }

    /// Total table pages across the database (for sizing the pool at the
    /// paper's "bufferpool is about 5% of the database size").
    pub fn total_table_pages(&self) -> u64 {
        self.tables
            .values()
            .map(|(t, _)| t.num_pages() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_relstore::{ColType, Column};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", ColType::Int32),
            Column::new("v", ColType::Float64),
        ])
    }

    #[test]
    fn heap_and_mdc_tables_register() {
        let mut db = Database::new(16);
        db.create_heap_table(
            "orders",
            schema(),
            (0..1000).map(|i| vec![Value::I32(i), Value::F64(i as f64)]),
        )
        .unwrap();
        db.create_mdc_table(
            "lineitem",
            schema(),
            4,
            (0..1000).map(|i| (i as i64 % 5, vec![Value::I32(i % 5), Value::F64(0.0)])),
        )
        .unwrap();
        assert_eq!(db.table_names(), vec!["lineitem", "orders"]);
        assert_eq!(db.table("orders").unwrap().num_rows(), 1000);
        assert!(db.table("lineitem").unwrap().as_mdc().is_some());
        assert!(db.total_table_pages() > 0);
        assert!(db.table("nope").is_none());
    }
}
