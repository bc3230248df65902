//! The database facade: a page store plus a catalog of loaded tables.

use std::collections::HashMap;

use scanshare_relstore::{
    BTree, Entry, HeapWriter, MdcTableBuilder, Schema, TableKind, TableMeta, Value,
};
use scanshare_storage::{FileStore, StorageResult};

/// An in-memory database: the authoritative pages of every table plus
/// table metadata. Runs borrow it immutably — the executor only reads
/// table pages, all run-local state (pool, disk, manager) lives in the
/// run itself, so base and scan-sharing runs see identical data.
#[derive(Debug)]
pub struct Database {
    store: FileStore,
    tables: HashMap<String, TableMeta>,
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
        self.tables.get(name)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        names.sort();
        names
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
        let name = name.into();
        let mut w = HeapWriter::create(&mut self.store, schema);
        for row in rows {
            w.append(&mut self.store, row.as_ref())?;
        }
        let heap = w.finish(&mut self.store)?;
        self.tables.insert(
            name.clone(),
            TableMeta {
                name: name.clone(),
                kind: TableKind::Heap(heap),
                rid_index: None,
            },
        );
        Ok(&self.tables[&name])
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
        let name = name.into();
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
        self.tables.insert(
            name.clone(),
            TableMeta {
                name: name.clone(),
                kind: TableKind::Heap(heap),
                rid_index: Some(index),
            },
        );
        Ok(&self.tables[&name])
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
        let name = name.into();
        let mut b = MdcTableBuilder::create(&mut self.store, schema, block_pages);
        for (cell, row) in rows {
            b.append(&mut self.store, cell, row.as_ref())?;
        }
        let table = b.finish(&mut self.store)?;
        self.tables.insert(
            name.clone(),
            TableMeta {
                name: name.clone(),
                kind: TableKind::Mdc(table),
                rid_index: None,
            },
        );
        Ok(&self.tables[&name])
    }

    /// Reassemble a database from persisted parts (see
    /// [`crate::persist`]).
    pub fn from_parts(store: FileStore, tables: Vec<TableMeta>) -> Self {
        Database {
            store,
            tables: tables.into_iter().map(|t| (t.name.clone(), t)).collect(),
        }
    }

    /// Save this database to a file (see [`crate::persist::save`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> crate::error::EngineResult<()> {
        crate::persist::save(self, path)
    }

    /// Load a database from a file (see [`crate::persist::load`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> crate::error::EngineResult<Database> {
        crate::persist::load(path)
    }

    /// Total table pages across the database (for sizing the pool at the
    /// paper's "bufferpool is about 5% of the database size").
    pub fn total_table_pages(&self) -> u64 {
        self.tables.values().map(|t| t.num_pages() as u64).sum()
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
