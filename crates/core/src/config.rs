//! Configuration of the sharing manager.

use scanshare_storage::SimDuration;
use serde::{Deserialize, Serialize};

/// Where `start_scan` starts a new scan. The first three are the paper's
/// placement and its variants, the last two the simpler sharing schemes of
/// related work (*From Cooperative Scans to Predictive Buffer Management*,
/// Świtakowski, Boncz, Zukowski). Throttling and page priorities are
/// separate switches of [`SharingConfig`] and mean the same under every
/// placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Placement {
    /// No placement: every scan starts at its start key (used for
    /// ablations).
    FromStart,
    /// §6.3's anchor-group algorithm: candidates are ongoing scans'
    /// current locations; O(|S|²). The paper's production choice.
    #[default]
    Practical,
    /// §6.2's "interesting locations" search; O(|S|³). Only applicable
    /// where scan locations form a known linear axis — i.e. table scans;
    /// index scans silently fall back to the practical algorithm.
    Optimal,
    /// QPipe-style attach (Harizopoulos et al., the paper's related work
    /// \[19\]): a new scan always attaches to the ongoing scan with the
    /// most remaining work, with no sharing-potential estimation, after
    /// the paper's leftover-cache check. Works when speeds are similar;
    /// drifts apart when they are not — the weakness the paper's
    /// placement + throttling were built to fix.
    /// [`SharingConfig::baseline`] models the original.
    AlwaysAttach,
    /// Baseline attach: a new scan jumps to the **newest** compatible
    /// scan's position. The newest scan is the one whose already-read
    /// pages are most likely still pool-resident, which is the entire
    /// intuition of attach-style sharing; contrast with
    /// [`Placement::AlwaysAttach`], which attaches to the scan with the
    /// most *remaining work*.
    Attach,
    /// One circulating read cursor per table. The cursor is materialized
    /// by the front-most ongoing scan (largest position); a new scan
    /// attaches there and relies on the engine's wrap-around phase to
    /// cover the part behind the cursor. When the table is idle the
    /// cursor rests where the last scan ended, so the next scan resumes
    /// from that position regardless of cache churn — elevator ordering
    /// is positional, not cache-estimated.
    ///
    /// Index-scan positions are only comparable within an anchor group,
    /// so for index scans "front-most" is an approximation based on the
    /// reported physical position; table scans (where positions are page
    /// numbers) are the scheme's home turf.
    Elevator,
}

impl Placement {
    /// Whether this is one of the related work's schemes (`Attach`,
    /// `Elevator`) rather than the paper's placement. Only their runs
    /// announce themselves: a `PolicyChosen` record and the report's
    /// `policy` stamp.
    pub fn is_baseline(self) -> bool {
        matches!(self, Placement::Attach | Placement::Elevator)
    }

    /// The sharing-policy name narratives and the profiler's placement
    /// instants print: `attach`, `elevator`, or `grouping` for the
    /// paper's placements.
    pub fn policy_name(self) -> &'static str {
        match self {
            Placement::Attach => "attach",
            Placement::Elevator => "elevator",
            _ => "grouping",
        }
    }
}

/// How pages reach a group's consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DeliveryMode {
    /// Every scan steps its own cursor and fixes its own pages (the
    /// papers' model, and the default). N scans in a group cost ≈ N pool
    /// fixes per shared page.
    #[default]
    Pull,
    /// One *group driver* cursor per (table, range) fetches each extent
    /// exactly once and pushes the fixed pages through every attached
    /// consumer's row pipeline before release — N consumers, one pool
    /// fix per page (the push-based storage-manager design from the
    /// related work).
    Push,
}

/// Leader throttling waits until the trailer is back within this many
/// extents of its leader ("typically less than two prefetch extents").
pub const THROTTLE_THRESHOLD_EXTENTS: u64 = 2;

/// Upper bound on a single injected wait, so one stale speed estimate
/// cannot stall a scan for an unbounded time.
pub const MAX_WAIT: SimDuration = SimDuration::from_millis(500);

/// Tunables of the scan-sharing manager: the paper's three mechanisms
/// (placement, leader throttling, page re-prioritisation), the fairness
/// cap, and how pages reach a group. Defaults mirror the papers'
/// prototype: practical placement, an 80 % fairness cap on accumulated
/// slowdown, every mechanism on.
///
/// A spec writes the six settable fields; `delivery` may be missing from
/// specs written before it existed. The pool and extent sizes are the
/// run's, filled in when the manager is built, and never serialized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharingConfig {
    /// Size of the buffer pool the manager optimizes for, in pages. Used
    /// as the extent budget when forming groups (Figure 14) and as the
    /// churn window in the sharing-potential estimator.
    #[serde(skip)]
    pub pool_pages: u64,
    /// Pages per extent; location updates arrive at this granularity.
    #[serde(skip)]
    pub extent_pages: u64,
    /// Where a new scan starts (see [`Placement`]).
    pub placement: Placement,
    /// Master switch: throttle drifting leaders.
    pub enable_throttling: bool,
    /// Master switch: leader/trailer page re-prioritization, and a
    /// priority-aware buffer pool.
    pub enable_priorities: bool,
    /// Stop throttling a scan once its accumulated slowdown exceeds this
    /// fraction of its estimated total scan time (the paper's 80 % rule).
    /// A run refuses a cap outside [0, 1].
    pub fairness_cap: f64,
    /// Scale the fairness cap by each query's [`crate::scan::QueryPriority`]
    /// — the dynamic-threshold extension the paper lists as future work.
    pub dynamic_fairness: bool,
    /// How pages reach a group's consumers: every scan pulls its own
    /// pages (default) or a single group driver pushes each fixed extent
    /// through all attached consumers.
    #[serde(default)]
    pub delivery: DeliveryMode,
}

impl SharingConfig {
    /// A full-featured configuration for a pool of `pool_pages` pages and
    /// 16-page extents.
    pub fn new(pool_pages: u64) -> Self {
        SharingConfig {
            pool_pages,
            extent_pages: 16,
            placement: Placement::default(),
            enable_throttling: true,
            enable_priorities: true,
            fairness_cap: 0.8,
            dynamic_fairness: false,
            delivery: DeliveryMode::default(),
        }
    }

    /// The related work's `placement` scheme as it was built: neither
    /// throttling nor page priorities.
    pub fn baseline(pool_pages: u64, placement: Placement) -> Self {
        SharingConfig {
            placement,
            enable_throttling: false,
            enable_priorities: false,
            ..Self::new(pool_pages)
        }
    }

    /// Distance (in pages) beyond which a leader is throttled.
    pub fn throttle_threshold_pages(&self) -> u64 {
        THROTTLE_THRESHOLD_EXTENTS * self.extent_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SharingConfig::new(5000);
        assert_eq!(c.extent_pages, 16);
        assert_eq!(c.throttle_threshold_pages(), 32);
        assert!((c.fairness_cap - 0.8).abs() < 1e-12);
        assert_eq!(c.placement, Placement::Practical);
        assert!(c.enable_throttling && c.enable_priorities);
    }

    #[test]
    fn delivery_defaults_to_pull_and_round_trips() {
        let c = SharingConfig::new(100);
        assert_eq!(c.delivery, DeliveryMode::Pull);
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(
            json,
            "{\"placement\":\"Practical\",\"enable_throttling\":true,\
             \"enable_priorities\":true,\"fairness_cap\":0.8,\
             \"dynamic_fairness\":false,\"delivery\":\"Pull\"}"
        );
        // The skipped sizes load as zero, whatever a spec says; the run
        // fills them in. Specs written before `delivery` existed load as
        // pull.
        let pre_push = json.replace(",\"delivery\":\"Pull\"", ",\"pool_pages\":7");
        let back: SharingConfig = serde_json::from_str(&pre_push).unwrap();
        assert_eq!((back.pool_pages, back.extent_pages), (0, 0));
        assert_eq!(back.delivery, DeliveryMode::Pull);
        let mut push = SharingConfig::baseline(100, Placement::Elevator);
        push.delivery = DeliveryMode::Push;
        let json = serde_json::to_string(&push).unwrap();
        assert!(json.contains("\"placement\":\"Elevator\""), "got: {json}");
        assert!(json.contains("\"delivery\":\"Push\""), "got: {json}");
        // A spec in the shape before `placement` existed is refused.
        let old = "{\"policy\":\"Grouping\",\"enable_throttling\":true,\
                   \"enable_priorities\":true,\"fairness_cap\":0.8,\
                   \"dynamic_fairness\":false}";
        let err = serde_json::from_str::<SharingConfig>(old).unwrap_err();
        assert!(err.to_string().contains("`placement`"), "got: {err}");
    }
}
