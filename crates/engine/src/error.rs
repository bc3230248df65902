//! Engine error type.

use std::fmt;

use scanshare_relstore::ColType;
use scanshare_storage::StorageError;

/// Errors raised while planning or executing a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A storage-layer failure.
    Storage(StorageError),
    /// A query referenced a table that does not exist.
    UnknownTable(String),
    /// An index scan targeted a table that is not block-clustered.
    NotClustered(String),
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
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            EngineError::NotClustered(t) => {
                write!(f, "table '{t}' has no block index (not MDC-clustered)")
            }
            EngineError::BadColumn {
                table,
                column,
                expected,
            } => write!(f, "table '{table}' has no {expected:?} column {column}"),
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
