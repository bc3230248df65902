#![warn(missing_docs)]
//! `scanshare` — the scan-sharing manager.
//!
//! This crate is the reproduction of the primary contribution of
//! *"Increasing Buffer-Locality for Multiple Relational Table Scans
//! through Grouping and Throttling"* (ICDE 2007), together with the
//! index-scan extension of its VLDB 2007 companion paper (*intelligent
//! placement* and *anchor-based ordering* so the same grouping/throttling
//! machinery works when scan locations are not linearly comparable).
//!
//! The design follows the papers' architecture exactly (their Figure 4):
//! the manager is a passive component that scans call into at three
//! points, and it never touches the index, the buffer pool internals, or
//! the disk —
//!
//! 1. [`ScanSharingManager::start_scan`] — registers a scan and decides
//!    *where it should start* (placement),
//! 2. [`ScanSharingManager::update_location`] — called every extent;
//!    returns a **throttle wait** for drifting group leaders and the
//!    **release priority** for the pages just processed,
//! 3. [`ScanSharingManager::end_scan`] — deregisters the scan and records
//!    its final location for the "join the last finished scan" case.
//!
//! Internally the manager keeps, per scan, the attribute set of §5.2 of
//! the paper (location, remaining pages, speed, key range, anchor, anchor
//! offset), maintains the anchor-based partial order of §5.3, classifies
//! groups into leaders and trailers (§7.2, Figure 14), throttles leaders
//! with the 80 % fairness cap, and scores candidate start locations with
//! the `calculateReads` estimator of §6 (Figures 8–13).
//!
//! ```
//! use scanshare::{ScanSharingManager, SharingConfig, ScanDesc, ScanKind, Location, ObjectId};
//! use scanshare_storage::{SimTime, SimDuration};
//!
//! let mgr = ScanSharingManager::new(SharingConfig::new(1000));
//! let table = ObjectId(0);
//! let desc = ScanDesc {
//!     kind: ScanKind::Table,
//!     object: table,
//!     start_key: 0,
//!     end_key: 9_999,
//!     est_pages: 10_000,
//!     est_time: SimDuration::from_secs(10),
//!     priority: Default::default(),
//! };
//! let (scan, decision) = mgr.start_scan(desc.clone(), SimTime::ZERO);
//! // First scan on the table: nothing to join.
//! assert!(decision.is_from_start());
//!
//! // A second, overlapping scan is placed at the first one's location.
//! let t = SimTime::from_secs(1);
//! mgr.update_location(scan, t, Location::new(1000, 1000), 1000);
//! let (_scan2, decision2) = mgr.start_scan(desc, t);
//! assert_eq!(decision2.join_location().unwrap().pos, 1000);
//! ```

pub mod anchor;
pub mod config;
pub mod decision;
pub mod grouping;
pub mod manager;
pub mod obs;
pub mod placement;
pub mod policy;
pub mod scan;
pub mod stats;
pub mod throttle;

pub use config::{DeliveryMode, Placement, SharingConfig};
pub use decision::{DecisionEvent, DecisionLog, DecisionRecord, PlacementCandidate};
pub use grouping::{GroupInfo, Role};
pub use manager::{ManagerProbe, ScanProbe, ScanSharingManager, StartDecision, UpdateOutcome};
pub use obs::span::{ProfileSummary, SpanId, SpanProfiler, Track};
pub use obs::MetricsSnapshot;
pub use scan::{Location, ObjectId, QueryPriority, ScanDesc, ScanId, ScanKind};
pub use stats::SharingStats;

pub use scanshare_storage::PagePriority;
