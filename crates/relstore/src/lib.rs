//! Relational storage for the `scanshare` reproduction.
//!
//! Everything a mini decision-support engine needs on top of raw pages:
//!
//! * [`value`] — column types, a fixed-width row codec, and zero-copy row
//!   views ([`value::RowRef`]) so that predicate evaluation never allocates,
//! * [`heap`] — slotted heap pages and append-only heap files with RIDs,
//! * [`btree`] — a bulk-loaded, read-only paged B+ tree over
//!   `(i64 key, u64 payload)` entries with duplicate keys, used both as a
//!   RID index and as an MDC block index,
//! * [`mdc`] — an MDC-style block-clustered table: rows are placed into
//!   16-page blocks per clustering-key cell, blocks from different cells
//!   interleave on disk (which is what makes key-order traversal seek),
//! * [`catalog`] — table metadata shared by the engine.
//!
//! Index pages are read directly from the store rather than through the
//! buffer pool: the papers explicitly exclude index-page sharing ("we are
//! not discussing replacement of index-only scans") and the non-leaf
//! levels of a DSS index are resident in practice. Only *table* pages flow
//! through the buffer pool and the disk model.

pub mod btree;
pub mod catalog;
pub mod heap;
pub mod mdc;
pub mod value;

pub use btree::{BTree, Entry};
pub use catalog::{TableKind, TableMeta};
pub use heap::{HeapFile, HeapPage, HeapPageBuilder, HeapWriter, Rid};
pub use mdc::{BlockId, MdcTable, MdcTableBuilder};
pub use value::{ColType, Column, RowRef, Schema, Value};
