//! Configuration of the sharing manager.

use scanshare_storage::SimDuration;
use serde::{Deserialize, Serialize};

use crate::policy::SharingPolicyKind;

/// Which placement algorithm start_scan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementStrategy {
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
    /// most remaining work, with no sharing-potential estimation. Works
    /// when speeds are similar; drifts apart when they are not — the
    /// weakness the paper's placement + throttling were built to fix.
    /// Pair with `enable_throttling: false` to model the original.
    AlwaysAttach,
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

/// Tunables of the scan-sharing manager. Defaults mirror the papers'
/// prototype: 16-page extents, a drift threshold of two prefetch extents,
/// and an 80 % fairness cap on accumulated slowdown.
///
/// Every field is written; the `#[serde(default)]` ones may be missing
/// from specs written before they existed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharingConfig {
    /// Size of the buffer pool the manager optimizes for, in pages. Used
    /// as the extent budget when forming groups (Figure 14) and as the
    /// churn window in the sharing-potential estimator.
    pub pool_pages: u64,
    /// Pages per extent; location updates arrive at this granularity.
    pub extent_pages: u64,
    /// Throttle a group leader once its distance to the trailer exceeds
    /// this many extents ("typically less than two prefetch extents").
    pub throttle_threshold_extents: u64,
    /// Stop throttling a scan once its accumulated slowdown exceeds this
    /// fraction of its estimated total scan time (the paper's 80 % rule).
    pub fairness_cap: f64,
    /// Scale the fairness cap by each query's [`crate::scan::QueryPriority`]
    /// — the dynamic-threshold extension the paper lists as future work.
    pub dynamic_fairness: bool,
    /// Upper bound on a single injected wait, so one stale speed estimate
    /// cannot stall a scan for an unbounded time.
    pub max_wait: SimDuration,
    /// Master switch: choose start locations via placement. Off = every
    /// scan starts at its start key (used for ablations).
    pub enable_placement: bool,
    /// Placement algorithm (see [`PlacementStrategy`]).
    pub placement_strategy: PlacementStrategy,
    /// Master switch: throttle drifting leaders.
    pub enable_throttling: bool,
    /// Master switch: leader/trailer page re-prioritization.
    pub enable_priorities: bool,
    /// Which [`SharingPolicyKind`] the manager runs. Defaults
    /// to the paper's grouping+throttling; `attach` and `elevator` model
    /// the simpler sharing schemes of related work.
    #[serde(default)]
    pub policy: SharingPolicyKind,
    /// How pages reach a group's consumers: every scan pulls its own
    /// pages (default) or a single group driver pushes each fixed extent
    /// through all attached consumers.
    #[serde(default)]
    pub delivery: DeliveryMode,
}

impl SharingConfig {
    /// A full-featured configuration for a pool of `pool_pages` pages.
    pub fn new(pool_pages: u64) -> Self {
        SharingConfig {
            pool_pages,
            extent_pages: 16,
            throttle_threshold_extents: 2,
            fairness_cap: 0.8,
            dynamic_fairness: false,
            max_wait: SimDuration::from_millis(500),
            enable_placement: true,
            placement_strategy: PlacementStrategy::default(),
            enable_throttling: true,
            enable_priorities: true,
            policy: SharingPolicyKind::default(),
            delivery: DeliveryMode::default(),
        }
    }

    /// `new(pool_pages)` with the given sharing policy selected.
    pub fn with_policy(pool_pages: u64, policy: SharingPolicyKind) -> Self {
        SharingConfig {
            policy,
            ..Self::new(pool_pages)
        }
    }

    /// Distance (in pages) beyond which a leader is throttled.
    pub fn throttle_threshold_pages(&self) -> u64 {
        self.throttle_threshold_extents * self.extent_pages
    }

    /// The QPipe-style attach baseline of the paper's related work \[19\]:
    /// unconditional attachment, no speed estimation, no throttling, no
    /// page re-prioritization.
    pub fn attach_baseline(pool_pages: u64) -> Self {
        SharingConfig {
            placement_strategy: PlacementStrategy::AlwaysAttach,
            enable_throttling: false,
            enable_priorities: false,
            ..Self::new(pool_pages)
        }
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
        assert!(c.enable_placement && c.enable_throttling && c.enable_priorities);
    }

    #[test]
    fn delivery_defaults_to_pull_and_round_trips() {
        let c = SharingConfig::new(100);
        assert_eq!(c.delivery, DeliveryMode::Pull);
        // Serialized configs name the mode, and specs written before
        // the knob existed still load as pull.
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.ends_with(",\"delivery\":\"Pull\"}"), "got: {json}");
        let pre_push = json.replace(",\"delivery\":\"Pull\"", "");
        let back: SharingConfig = serde_json::from_str(&pre_push).unwrap();
        assert_eq!(back.delivery, DeliveryMode::Pull);
        let mut push = SharingConfig::new(100);
        push.delivery = DeliveryMode::Push;
        let json = serde_json::to_string(&push).unwrap();
        assert!(json.contains("\"delivery\":\"Push\""), "got: {json}");
    }
}
