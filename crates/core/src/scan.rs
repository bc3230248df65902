//! Scan identities, locations, and the per-scan attribute record of §5.2.

use scanshare_storage::{PagePriority, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::anchor::AnchorId;
use crate::grouping::{ChainKey, Role};

/// Identifier of a registered scan.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ScanId(pub u64);

/// Identifier of the object being scanned (a table, or an index over a
/// table). Scans can only share with scans on the same object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

/// What kind of scan this is. The distinction matters because table-scan
/// locations are linearly comparable (a page number) while index-scan
/// locations are not — index scans rely on the anchor/offset partial
/// order of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanKind {
    /// Sequential scan over a heap table; location = page number.
    Table,
    /// Index(-driven) scan; location = (key, opaque position).
    Index,
}

/// A scan location: the current key and an engine-assigned position token.
///
/// For table scans, `pos` is the page number and is meaningfully ordered.
/// For index scans, `pos` identifies the index entry being processed; the
/// manager only ever compares index positions for **equality** (to detect
/// that two scans are at the very same place), never for order — ordering
/// comes from anchors and offsets, keeping the index a black box exactly
/// as the paper prescribes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Current key value (page number for table scans).
    pub key: i64,
    /// Engine-defined position token (entry index / page number).
    pub pos: u64,
}

impl Location {
    /// Construct a location.
    pub const fn new(key: i64, pos: u64) -> Self {
        Location { key, pos }
    }
}

/// Importance class of the query a scan belongs to, used by the dynamic
/// fairness extension (§7.2's future work: "make this threshold dynamic
/// by taking into account query priorities"). High-priority queries
/// tolerate less throttling for the benefit of others; low-priority
/// queries tolerate more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QueryPriority {
    /// Batch/background work: may be slowed down longer.
    Low,
    /// Default.
    #[default]
    Normal,
    /// Interactive/SLA work: throttled only briefly.
    High,
}

impl QueryPriority {
    /// Multiplier applied to the fairness cap.
    pub fn fairness_factor(self) -> f64 {
        match self {
            QueryPriority::Low => 1.5,
            QueryPriority::Normal => 1.0,
            QueryPriority::High => 0.5,
        }
    }
}

/// The registration record a scan supplies at start time. `est_pages` and
/// `est_time` play the role of the paper's *scan amount estimate* and
/// *scan speed estimate*, "supplied by the costing component of the query
/// compiler".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanDesc {
    /// Table or index scan.
    pub kind: ScanKind,
    /// The scanned object.
    pub object: ObjectId,
    /// First key of the scan range (first page for table scans).
    pub start_key: i64,
    /// Last key of the scan range, inclusive.
    pub end_key: i64,
    /// Estimated pages between start and end key.
    pub est_pages: u64,
    /// Estimated time to scan the whole range.
    pub est_time: SimDuration,
    /// Importance of the owning query (see [`QueryPriority`]).
    #[serde(default)]
    pub priority: QueryPriority,
}

impl ScanDesc {
    /// Estimated speed in pages per second, derived exactly as the paper
    /// initializes it: `(estimated pages in range) / (estimated time)`.
    pub fn est_speed(&self) -> f64 {
        let secs = self.est_time.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.est_pages as f64 / secs
        }
    }

    /// Whether `key` falls inside the scan's key range.
    pub fn contains_key(&self, key: i64) -> bool {
        self.start_key <= key && key <= self.end_key
    }
}

/// The manager's internal record for one ongoing scan — the attribute set
/// of §5.2 of the paper, plus the accumulated-slowdown counter of §7.2.
#[derive(Debug, Clone)]
pub(crate) struct ScanState {
    pub id: ScanId,
    pub desc: ScanDesc,
    /// Current location (key value and position token).
    pub location: Location,
    /// Remaining pages in the scan range (initialized from the estimate,
    /// decremented as the scan advances).
    pub remaining_pages: u64,
    /// Recent speed in pages/second: `(pages since last update) / (time
    /// since last update)`.
    pub speed: f64,
    /// Anchor defining the scan's coordinate system.
    pub anchor: AnchorId,
    /// Pages between the anchor location and the current location.
    pub anchor_offset: i64,
    /// When the last location update arrived.
    pub last_update: SimTime,
    /// Total throttle wait injected into this scan so far.
    pub accumulated_slowdown: SimDuration,
    /// Set once the fairness cap is hit; the scan is never throttled again
    /// ("not slowed down anymore until it finishes").
    pub throttle_exempt: bool,
    /// Role reported by the last grouping pass (`None` before the first
    /// `update_location`), so role flips can be detected for provenance.
    pub last_role: Option<Role>,
    /// Whether the last throttle decision injected a wait (drives the
    /// `Unthrottle` provenance event).
    pub throttled: bool,
    /// Release priority chosen by the last `update_location` (`None`
    /// before the first call; releases start out `Normal`).
    pub last_priority: Option<PagePriority>,
}

impl ScanState {
    pub(crate) fn new(
        id: ScanId,
        desc: ScanDesc,
        location: Location,
        anchor: AnchorId,
        anchor_offset: i64,
        now: SimTime,
    ) -> Self {
        let speed = desc.est_speed();
        let remaining_pages = desc.est_pages;
        ScanState {
            id,
            desc,
            location,
            remaining_pages,
            speed,
            anchor,
            anchor_offset,
            last_update: now,
            accumulated_slowdown: SimDuration::ZERO,
            throttle_exempt: false,
            last_role: None,
            throttled: false,
            last_priority: None,
        }
    }

    /// Where the scan sits in the grouping chain.
    pub(crate) fn key(&self) -> ChainKey {
        (self.anchor, self.anchor_offset, self.id)
    }

    /// Apply a location update: refresh speed, shrink the remaining-pages
    /// estimate. The offset moves with the grouping state, so the manager
    /// advances it (`pages` further on).
    pub(crate) fn advance(&mut self, now: SimTime, location: Location, pages: u64) {
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 && pages > 0 {
            self.speed = pages as f64 / dt;
        }
        self.location = location;
        self.remaining_pages = self.remaining_pages.saturating_sub(pages);
        self.last_update = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> ScanDesc {
        ScanDesc {
            kind: ScanKind::Index,
            object: ObjectId(1),
            start_key: 10,
            end_key: 20,
            est_pages: 1000,
            est_time: SimDuration::from_secs(10),
            priority: Default::default(),
        }
    }

    #[test]
    fn priority_factors_order_sensibly() {
        assert!(QueryPriority::High.fairness_factor() < QueryPriority::Normal.fairness_factor());
        assert!(QueryPriority::Normal.fairness_factor() < QueryPriority::Low.fairness_factor());
        assert_eq!(QueryPriority::default(), QueryPriority::Normal);
    }

    #[test]
    fn est_speed_is_pages_over_time() {
        assert!((desc().est_speed() - 100.0).abs() < 1e-9);
        let zero_time = ScanDesc {
            est_time: SimDuration::ZERO,
            ..desc()
        };
        assert!(zero_time.est_speed().is_infinite());
    }

    #[test]
    fn contains_key_is_inclusive() {
        let d = desc();
        assert!(d.contains_key(10));
        assert!(d.contains_key(20));
        assert!(!d.contains_key(9));
        assert!(!d.contains_key(21));
    }

    #[test]
    fn advance_updates_speed_and_remaining() {
        let mut s = ScanState::new(
            ScanId(1),
            desc(),
            Location::new(10, 0),
            AnchorId(0),
            0,
            SimTime::ZERO,
        );
        assert!((s.speed - 100.0).abs() < 1e-9); // initial estimate
        s.advance(SimTime::from_secs(2), Location::new(12, 400), 400);
        assert!((s.speed - 200.0).abs() < 1e-9); // measured
        assert_eq!(s.anchor_offset, 0, "the manager moves the offset");
        assert_eq!(s.remaining_pages, 600);
        assert_eq!(s.location, Location::new(12, 400));
    }

    #[test]
    fn advance_with_zero_dt_keeps_speed() {
        let mut s = ScanState::new(
            ScanId(1),
            desc(),
            Location::new(10, 0),
            AnchorId(0),
            0,
            SimTime::ZERO,
        );
        s.advance(SimTime::ZERO, Location::new(10, 16), 16);
        assert!((s.speed - 100.0).abs() < 1e-9);
    }

    #[test]
    fn remaining_saturates_at_zero() {
        let mut s = ScanState::new(
            ScanId(1),
            desc(),
            Location::new(10, 0),
            AnchorId(0),
            0,
            SimTime::ZERO,
        );
        s.advance(SimTime::from_secs(1), Location::new(20, 5000), 5000);
        assert_eq!(s.remaining_pages, 0);
    }
}
