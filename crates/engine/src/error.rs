//! Engine error type.

use std::fmt;

use scanshare_relstore::ColType;
use scanshare_storage::StorageError;

/// Errors raised while planning or executing a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A storage-layer failure.
    Storage(StorageError),
    /// A query referenced a table that does not exist.
    UnknownTable(String),
    /// An index scan targeted a table that is not block-clustered.
    NotClustered(String),
    /// A RID-range scan targeted a table without a RID index.
    NoRidIndex(String),
    /// A scan's predicate or aggregate named a column its table does not
    /// have, or has as another type than the one read.
    BadColumn {
        /// The scanned table.
        table: String,
        /// The column index the spec named.
        column: usize,
        /// The type the predicate leaf, sum or group-by reads there.
        expected: ColType,
    },
    /// A size the run divides by or draws from is zero, named by its
    /// path in a run spec.
    ZeroSize(&'static str),
    /// `workload.engine.prefetch_extents` asks for a depth above the one
    /// extent a scan reads ahead.
    PrefetchAboveOne(u32),
    /// The pool cannot hold one extent, which a scan step pins whole.
    PoolBelowExtent {
        /// `workload.pool_pages`.
        pool_pages: u64,
        /// `workload.engine.extent_pages`.
        extent_pages: u64,
    },
    /// `workload.mode.ScanSharing.fairness_cap` is not a fraction in
    /// [0, 1].
    FairnessCapNotAFraction(f64),
    /// A scan groups by more `Char` columns than fit one packed key.
    TooManyGroupColumns {
        /// The scanned table.
        table: String,
        /// The number of group-by columns the spec named.
        columns: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            EngineError::NotClustered(t) => {
                write!(f, "table '{t}' has no block index (not MDC-clustered)")
            }
            EngineError::NoRidIndex(t) => write!(f, "table '{t}' has no RID index"),
            EngineError::BadColumn {
                table,
                column,
                expected,
            } => write!(f, "table '{table}' has no {expected:?} column {column}"),
            EngineError::ZeroSize(field) => write!(f, "{field} must be at least 1"),
            EngineError::PrefetchAboveOne(n) => write!(
                f,
                "workload.engine.prefetch_extents must be 0 (off) or 1 (one extent ahead), not {n}"
            ),
            EngineError::PoolBelowExtent {
                pool_pages,
                extent_pages,
            } => write!(
                f,
                "workload.pool_pages ({pool_pages}) must be at least \
                 workload.engine.extent_pages ({extent_pages})"
            ),
            EngineError::FairnessCapNotAFraction(cap) => write!(
                f,
                "workload.mode.ScanSharing.fairness_cap must be a fraction in [0, 1], not {cap}"
            ),
            EngineError::TooManyGroupColumns { table, columns } => write!(
                f,
                "a scan of '{table}' groups by {columns} columns, at most 8 fit a group key"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: EngineError = StorageError::UnknownFile(scanshare_storage::FileId(3)).into();
        assert!(e.to_string().contains("storage error"));
        assert_eq!(
            EngineError::UnknownTable("x".into()).to_string(),
            "unknown table 'x'"
        );
    }
}
