//! Table metadata shared between the loader, the engine, and experiments.

use scanshare_storage::FileId;

use crate::btree::BTree;
use crate::heap::HeapFile;
use crate::mdc::MdcTable;
use crate::value::Schema;

/// How a table is physically organized.
#[derive(Debug, Clone)]
pub enum TableKind {
    /// Plain heap file in insertion order (target of table scans).
    Heap(HeapFile),
    /// MDC block-clustered table (target of block index scans).
    Mdc(MdcTable),
}

/// A named table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Physical organization.
    pub kind: TableKind,
    /// Optional secondary RID index (key column -> packed RID).
    pub rid_index: Option<BTree>,
}

impl TableMeta {
    /// The table's row schema.
    pub fn schema(&self) -> &Schema {
        match &self.kind {
            TableKind::Heap(h) => &h.schema,
            TableKind::Mdc(m) => &m.schema,
        }
    }

    /// The backing file of the table pages.
    pub fn file(&self) -> FileId {
        match &self.kind {
            TableKind::Heap(h) => h.file,
            TableKind::Mdc(m) => m.file,
        }
    }

    /// Number of table pages.
    pub fn num_pages(&self) -> u32 {
        match &self.kind {
            TableKind::Heap(h) => h.num_pages,
            TableKind::Mdc(m) => m.num_pages(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> u64 {
        match &self.kind {
            TableKind::Heap(h) => h.num_rows,
            TableKind::Mdc(m) => m.num_rows,
        }
    }

    /// The MDC view of this table, if block-clustered.
    pub fn as_mdc(&self) -> Option<&MdcTable> {
        match &self.kind {
            TableKind::Mdc(m) => Some(m),
            TableKind::Heap(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColType, Column, Value};
    use crate::HeapWriter;
    use scanshare_storage::FileStore;

    #[test]
    fn heap_table_meta_accessors() {
        let mut store = FileStore::new(16);
        let schema = Schema::new(vec![Column::new("k", ColType::Int64)]);
        let mut w = HeapWriter::create(&mut store, schema.clone());
        for i in 0..10 {
            w.append(&mut store, &[Value::I64(i)]).unwrap();
        }
        let heap = w.finish(&mut store).unwrap();
        let meta = TableMeta {
            name: "t".into(),
            kind: TableKind::Heap(heap),
            rid_index: None,
        };
        assert_eq!(meta.num_rows(), 10);
        assert_eq!(meta.num_pages(), 1);
        assert_eq!(meta.schema(), &schema);
        assert!(meta.as_mdc().is_none());
    }
}
