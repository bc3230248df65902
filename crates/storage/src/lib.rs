//! Storage substrate for the `scanshare` reproduction.
//!
//! This crate implements the parts of a database storage layer that the
//! scan-sharing papers (ICDE 2007 table-scan grouping/throttling and its
//! VLDB 2007 index-scan companion) take for granted:
//!
//! * a **virtual clock** ([`sim::SimTime`]) so that multi-scan experiments
//!   are deterministic and reproducible,
//! * a **disk model** ([`disk::Disk`]) with a single head, per-request seek
//!   and transfer costs, FIFO service, and the seek/read counters the
//!   papers measure via `iostat`,
//! * a **volume layout** ([`volume::Volume`]) that maps logical file pages
//!   to physical addresses in extent-sized runs, so that interleaved file
//!   growth produces realistic non-contiguous layouts,
//! * an in-memory **page store** ([`store::FileStore`]) holding the actual
//!   page bytes (the "platters"),
//! * a **buffer pool** ([`pool::BufferPool`]) that supports the release
//!   priority hint the papers rely on ("release page with priority p"),
//!   with both a plain LRU policy (the baseline) and a priority-aware LRU
//!   policy (the scan-sharing prototype).
//!
//! The crate is deliberately independent of the query layer: the sharing
//! manager in `scanshare` treats both the index and the cache as black
//! boxes, exactly as the papers require, and only this crate knows what a
//! page actually is.

pub mod array;
pub mod disk;
pub mod error;
pub mod fault;
pub mod page;
pub mod pool;
#[cfg(test)]
mod pool_legacy;
pub mod series;
pub mod sim;
pub mod store;
pub mod volume;

pub use array::DiskArray;
pub use disk::{Disk, DiskConfig, DiskStats, ReadCompletion};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultInjector, FaultKind, FaultOutcome, FaultPlan, FaultRule, FaultStats};
pub use page::{FileId, IdHasher, IdMap, PageBuf, PageId, PAGE_SIZE};
pub use pool::{BufferPool, PagePriority, PoolConfig, PoolStats, ReplacementPolicy, ResidentPage};
pub use series::TimeSeries;
pub use sim::{SimDuration, SimTime};
pub use store::FileStore;
pub use volume::Volume;

/// Number of pages per extent/block.
///
/// The papers use 16-page blocks ("we set it to 16 pages with a page size
/// of 32 Kbytes") and perform sharing-manager calls at every extent
/// boundary; the prefetcher and the MDC block layout both use this unit.
pub const PAGES_PER_EXTENT: u32 = 16;
