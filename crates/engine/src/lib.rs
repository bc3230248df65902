#![warn(missing_docs)]
//! Discrete-event query executor for the `scanshare` reproduction.
//!
//! The engine plays the role DB2 UDB plays in the papers: it runs
//! multi-stream decision-support workloads whose queries are table scans
//! and (block) index scans, against the storage substrate of
//! `scanshare-storage`/`scanshare-relstore`, optionally coordinated by the
//! scan-sharing manager of `scanshare`.
//!
//! Execution is a deterministic discrete-event simulation over virtual
//! time: each scan advances one extent (16 pages) per step, paying
//!
//! * **I/O time** through the single-head FIFO disk model (misses only —
//!   buffer pool hits are free except for CPU),
//! * **CPU time** through a bounded CPU server (`n_cpus`), so CPU-heavy
//!   queries contend like the paper's Q1 streams,
//! * **system time** per physical read request (the "fewer system read
//!   calls" effect visible in the paper's Figure 16),
//! * **throttle waits** injected by the sharing manager.
//!
//! The same workload can be run in *base* mode (no sharing, plain LRU —
//! "vanilla DB2") and *scan-sharing* mode; both produce identical query
//! answers (asserted in tests) and a [`metrics::RunReport`] with the
//! iostat-style measurements the papers report.

pub mod cost;
pub mod db;
pub mod error;
pub mod exec;
pub mod faults;
pub mod metrics;
pub mod persist;
pub mod push;
pub mod query;
pub mod scan_exec;
pub mod slo;
pub mod workload;

pub use cost::{CpuClass, EngineConfig};
pub use db::Database;
pub use error::{EngineError, EngineResult};
pub use faults::{FaultSummary, FaultsConfig};
pub use metrics::{Breakdown, PushSummary, QueryRecord, RunReport};
pub use query::{Access, AggSpec, Pred, Query, QueryResult, ScanSpec};
pub use slo::{SloConfig, SloOp, SloRule, SloVerdict};
pub use workload::{
    run_workload, run_workload_hooked, FrameObserver, RunHooks, SharingMode, Stream, WatchFrame,
    WorkloadSpec,
};
