//! Pluggable sharing policies: *how* concurrent scans share pages.
//!
//! The papers' grouping+throttling machinery is one point in a design
//! space that *From Cooperative Scans to Predictive Buffer Management*
//! (Świtakowski, Boncz, Zukowski) lays out more broadly: simpler engines
//! attach a new scan to a running one, column stores circulate a single
//! elevator cursor per table, and the paper under reproduction adds
//! placement scoring, leader/trailer throttling, and page priorities.
//!
//! This module carves that axis out of [`crate::manager`]: a
//! [`SharingPolicy`] decides **where a new scan starts** and **which of
//! the manager's feedback mechanisms are active**, while the manager
//! keeps the bookkeeping every policy needs (anchors, groups, speeds,
//! statistics, provenance). Three implementations ship:
//!
//! * [`GroupingPolicy`] — the default; the paper's §6.3 placement plus
//!   throttling and page re-prioritization. Runs under this policy are
//!   byte-identical to the pre-refactor code (a property pinned by CI).
//! * [`AttachPolicy`] — a new scan jumps to the *newest* compatible
//!   scan's position, with no throttling and no priority hints; the
//!   simplest sharing found in contemporary engines.
//! * [`ElevatorPolicy`] — one circulating read cursor per table: a new
//!   scan attaches at the front-most ongoing scan (the cursor), or where
//!   the last scan left off when the table is idle, and wraps around.
//!
//! Select a policy per run via [`SharingConfig::policy`] in the workload
//! spec, or `scanshare run --policy grouping|attach|elevator` on the
//! command line.

use serde::{Deserialize, Serialize};

use crate::anchor::AnchorId;
use crate::config::{PlacementStrategy, SharingConfig};
use crate::decision::PlacementCandidate;
use crate::manager::{StartDecision, UNKNOWN_POS};
use crate::placement::{best_start_optimal, best_start_practical, Trace};
use crate::scan::{Location, ScanDesc, ScanId, ScanKind};

/// Which sharing policy a run uses. Selected in [`SharingConfig::policy`]
/// (and therefore in workload specs) or via `run --policy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SharingPolicyKind {
    /// The paper's grouping+throttling machinery (the default).
    #[default]
    Grouping,
    /// Attach to the newest compatible ongoing scan; no throttling.
    Attach,
    /// One circulating read cursor per table; scans attach at the cursor
    /// and wrap.
    Elevator,
}

impl SharingPolicyKind {
    /// The CLI spelling of the policy (`grouping`, `attach`, `elevator`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SharingPolicyKind::Grouping => "grouping",
            SharingPolicyKind::Attach => "attach",
            SharingPolicyKind::Elevator => "elevator",
        }
    }
}

impl std::fmt::Display for SharingPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SharingPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "grouping" => Ok(SharingPolicyKind::Grouping),
            "attach" => Ok(SharingPolicyKind::Attach),
            "elevator" => Ok(SharingPolicyKind::Elevator),
            other => Err(format!(
                "unknown policy '{other}' (expected grouping, attach, or elevator)"
            )),
        }
    }
}

/// Snapshot of one ongoing scan, as a policy sees it. A read-only view of
/// the manager's internal per-scan state (§5.2's attribute set) so that
/// policies can be implemented outside the manager without access to its
/// private bookkeeping.
#[derive(Debug, Clone)]
pub struct ScanView<'a> {
    /// The scan's id (ascending in start order — higher id = newer scan).
    pub id: ScanId,
    /// The scan's static description (object, kind, key range, estimates).
    pub desc: &'a ScanDesc,
    /// Last reported location.
    pub location: Location,
    /// Estimated pages left in the scan range.
    pub remaining_pages: u64,
    /// Recent speed in pages per second.
    pub speed: f64,
    /// The anchor group the scan's position is expressed in.
    pub anchor: AnchorId,
    /// Position relative to the anchor, in pages.
    pub anchor_offset: i64,
}

/// Where the most recently finished scan on the target object stopped —
/// the "join the leftovers" input (Figure 13 line 2).
#[derive(Debug, Clone)]
pub struct FinishedView {
    /// Its final location.
    pub location: Location,
    /// Table or index scan.
    pub kind: ScanKind,
    /// Global churn counter when it ended; compared against
    /// [`PolicyView::total_pages_advanced`] to decide whether its trailing
    /// pages can still be in the pool.
    pub churn_at_end: u64,
}

/// Everything a [`SharingPolicy`] may consult when placing a new scan: a
/// snapshot of the manager's state taken under its lock at `start_scan`
/// time.
#[derive(Debug, Clone)]
pub struct PolicyView<'a> {
    /// The configuration in effect.
    pub cfg: &'a SharingConfig,
    /// All ongoing scans (every object, every kind), ascending by id.
    pub scans: Vec<ScanView<'a>>,
    /// The most recently finished scan on the new scan's object, if any.
    pub last_finished: Option<FinishedView>,
    /// Total pages advanced by all scans since the manager was created —
    /// the buffer-churn proxy for the leftover-cache check.
    pub total_pages_advanced: u64,
}

/// A sharing policy: decides where a new scan starts and which of the
/// manager's feedback mechanisms (throttling, page priorities) apply.
///
/// Implementations must be deterministic: given the same [`PolicyView`]
/// and descriptor they must return the same decision and push the same
/// candidates, or runs stop being reproducible.
pub trait SharingPolicy: Send + Sync {
    /// Which policy this is (for provenance and reports).
    fn kind(&self) -> SharingPolicyKind;

    /// Decide where a new scan described by `desc` starts. Every start
    /// location scored along the way — winners and rejected candidates
    /// alike — is appended to `candidates` so the decision-provenance
    /// event carries the full field the policy chose from.
    fn place(
        &self,
        view: &PolicyView,
        desc: &ScanDesc,
        candidates: &mut Vec<PlacementCandidate>,
    ) -> StartDecision;

    /// Whether group leaders are throttled to keep groups together
    /// (still subject to [`SharingConfig::enable_throttling`]).
    fn throttles(&self) -> bool;

    /// Whether leader/trailer page re-prioritization applies (still
    /// subject to [`SharingConfig::enable_priorities`]).
    fn prioritizes(&self) -> bool;

    /// Minimum absolute saving (pages) a placement candidate must offer,
    /// as recorded on placement provenance events.
    fn placement_threshold(&self, cfg: &SharingConfig) -> f64;

    /// Push delivery only: should a new consumer attach to a group
    /// driver that has already delivered `missed_pages` of its
    /// `range_pages`-page lap, replaying the missed prefix through a
    /// private pull cursor — or found a fresh driver of its own?
    ///
    /// The default mirrors the grouping policy's sharing-potential
    /// instinct: attach while the shared remainder dwarfs the private
    /// replay (missed prefix at most a fifth of the lap — the replay is
    /// pure duplicate fixing, so keeping it small is what holds a
    /// group's fixes-per-page near one). Policies that attach
    /// unconditionally in pull mode override this to do the same in
    /// push mode.
    fn attach_push(&self, missed_pages: u64, range_pages: u64) -> bool {
        missed_pages.saturating_mul(5) <= range_pages
    }
}

/// Build the policy implementation for `kind`.
pub fn policy_for(kind: SharingPolicyKind) -> Box<dyn SharingPolicy> {
    match kind {
        SharingPolicyKind::Grouping => Box::new(GroupingPolicy),
        SharingPolicyKind::Attach => Box::new(AttachPolicy),
        SharingPolicyKind::Elevator => Box::new(ElevatorPolicy),
    }
}

/// Ongoing scans a new scan could share pages with: same object, same
/// kind, current key inside the new scan's range (a scan whose location
/// is outside the range cannot be joined — §6). `view.scans` is sorted by
/// id, so the result is too.
fn compatible<'a>(view: &'a PolicyView<'_>, desc: &ScanDesc) -> Vec<&'a ScanView<'a>> {
    view.scans
        .iter()
        .filter(|s| {
            s.desc.object == desc.object
                && s.desc.kind == desc.kind
                && desc.contains_key(s.location.key)
        })
        .collect()
}

/// The paper's policy: §6.3 placement (with the optimal and
/// always-attach strategy variants of [`PlacementStrategy`]), leader
/// throttling, and page re-prioritization.
#[derive(Debug, Default, Clone, Copy)]
pub struct GroupingPolicy;

impl SharingPolicy for GroupingPolicy {
    fn kind(&self) -> SharingPolicyKind {
        SharingPolicyKind::Grouping
    }

    /// The placement logic of §6.3 (Figure 13), generalized over scan
    /// kinds: collect the anchor groups on the same object that overlap
    /// the new scan's key range, score each member's current location
    /// with `calculateReads`, and pick the best-saving candidate. With no
    /// ongoing scans, fall back to the most recently finished scan's
    /// location.
    fn place(
        &self,
        view: &PolicyView,
        desc: &ScanDesc,
        candidates: &mut Vec<PlacementCandidate>,
    ) -> StartDecision {
        let cfg = view.cfg;
        let mut members = compatible(view, desc);

        if members.is_empty() {
            // Figure 13 line 2: join the last finished scan's leftovers.
            let any_ongoing = view
                .scans
                .iter()
                .any(|s| s.desc.object == desc.object && s.desc.kind == desc.kind);
            if !any_ongoing {
                if let Some(fin) = &view.last_finished {
                    let still_cached =
                        view.total_pages_advanced.saturating_sub(fin.churn_at_end) < cfg.pool_pages;
                    if still_cached
                        && fin.kind == desc.kind
                        && desc.contains_key(fin.location.key)
                        && fin.location.pos != UNKNOWN_POS
                    {
                        // Leftover-cache candidate: at most a pool's worth
                        // of the finished scan's trailing pages survives.
                        let saving = cfg.pool_pages.min(desc.est_pages) as f64;
                        candidates.push(PlacementCandidate {
                            scan: None,
                            location: fin.location,
                            saving_pages: saving,
                            score: saving / desc.est_pages.max(1) as f64,
                            speed: 0.0,
                        });
                        return StartDecision::JoinAt {
                            location: fin.location,
                            scan: None,
                            back_up_pages: cfg.pool_pages,
                        };
                    }
                }
            }
            return StartDecision::FromStart;
        }

        // Attach strategy (QPipe baseline): join the ongoing scan with
        // the most remaining work, unconditionally.
        if cfg.placement_strategy == PlacementStrategy::AlwaysAttach {
            for m in members.iter().filter(|m| m.location.pos != UNKNOWN_POS) {
                let saving = m.remaining_pages.min(desc.est_pages) as f64;
                candidates.push(PlacementCandidate {
                    scan: Some(m.id),
                    location: m.location,
                    saving_pages: saving,
                    score: saving / desc.est_pages.max(1) as f64,
                    speed: m.speed,
                });
            }
            let target = members
                .iter()
                .filter(|m| m.location.pos != UNKNOWN_POS)
                .max_by_key(|m| (m.remaining_pages, std::cmp::Reverse(m.id)));
            return match target {
                Some(m) => StartDecision::JoinAt {
                    location: m.location,
                    scan: Some(m.id),
                    back_up_pages: 0,
                },
                None => StartDecision::FromStart,
            };
        }

        // Optimal strategy: table-scan locations form a known linear
        // axis (page numbers), so the O(|S|^3) interesting-locations
        // search of §6.2 can place the new scan anywhere in its range,
        // not just at a member's position.
        if cfg.placement_strategy == PlacementStrategy::Optimal && desc.kind == ScanKind::Table {
            let traces: Vec<Trace> = members
                .iter()
                .map(|m| {
                    Trace::new(
                        m.location.pos as f64,
                        m.speed,
                        (m.location.pos + m.remaining_pages) as f64,
                    )
                })
                .collect();
            if let Some(c) = best_start_optimal(
                &traces,
                desc.est_speed(),
                desc.est_pages as f64,
                cfg.pool_pages as f64,
                (desc.start_key as f64, desc.end_key as f64),
            ) {
                let saving = c.estimate.baseline - c.estimate.reads;
                let page = c.start.round().max(0.0) as u64;
                candidates.push(PlacementCandidate {
                    scan: None,
                    location: Location::new(page as i64, page),
                    saving_pages: saving,
                    score: c.estimate.savings_per_page(),
                    speed: 0.0,
                });
                if saving >= cfg.extent_pages as f64 {
                    return StartDecision::JoinAt {
                        location: Location::new(page as i64, page),
                        scan: None,
                        back_up_pages: 0,
                    };
                }
            }
            return StartDecision::FromStart;
        }

        // Evaluate per anchor group (offsets are only comparable within a
        // group), then take the best savings across groups. The sort is
        // stable: groups come in anchor order, their members in id order.
        members.sort_by_key(|m| m.anchor);

        let cand_speed = desc.est_speed();
        let mut best: Option<(f64, ScanId, Location)> = None;
        for group_members in members.chunk_by(|a, b| a.anchor == b.anchor) {
            let traces: Vec<Trace> = group_members
                .iter()
                .map(|m| {
                    Trace::new(
                        m.anchor_offset as f64,
                        m.speed,
                        (m.anchor_offset + m.remaining_pages as i64) as f64,
                    )
                })
                .collect();
            if let Some(c) = best_start_practical(
                &traces,
                cand_speed,
                desc.est_pages as f64,
                cfg.pool_pages as f64,
            ) {
                // Require the join to save at least one extent's worth of
                // reads in absolute terms: a scan about to finish offers a
                // positive but useless per-page score over a tiny span
                // (Figure 7's "sharing duration is limited" case).
                let absolute_saving = c.estimate.baseline - c.estimate.reads;
                let member = group_members[c.member];
                let score = c.estimate.savings_per_page();
                candidates.push(PlacementCandidate {
                    scan: Some(member.id),
                    location: member.location,
                    saving_pages: absolute_saving,
                    score,
                    speed: member.speed,
                });
                if absolute_saving < cfg.extent_pages as f64 {
                    continue;
                }
                if best.map(|(s, _, _)| score > s).unwrap_or(true) {
                    best = Some((score, member.id, member.location));
                }
            }
        }
        match best {
            Some((_, scan, location)) if location.pos != UNKNOWN_POS => StartDecision::JoinAt {
                location,
                scan: Some(scan),
                back_up_pages: 0,
            },
            _ => StartDecision::FromStart,
        }
    }

    fn throttles(&self) -> bool {
        true
    }

    fn prioritizes(&self) -> bool {
        true
    }

    /// `AlwaysAttach` joins unconditionally, so its threshold is zero;
    /// the scoring strategies require one extent's worth of saving.
    fn placement_threshold(&self, cfg: &SharingConfig) -> f64 {
        if cfg.enable_placement && cfg.placement_strategy != PlacementStrategy::AlwaysAttach {
            cfg.extent_pages as f64
        } else {
            0.0
        }
    }
}

/// Baseline attach policy: a new scan jumps to the **newest** compatible
/// scan's position — no sharing-potential estimation, no throttling, no
/// page priorities. The newest scan is the one whose already-read pages
/// are most likely still pool-resident, which is the entire intuition of
/// attach-style sharing; contrast with [`PlacementStrategy::AlwaysAttach`]
/// inside the grouping policy, which attaches to the scan with the most
/// *remaining work*.
#[derive(Debug, Default, Clone, Copy)]
pub struct AttachPolicy;

impl SharingPolicy for AttachPolicy {
    fn kind(&self) -> SharingPolicyKind {
        SharingPolicyKind::Attach
    }

    fn place(
        &self,
        view: &PolicyView,
        desc: &ScanDesc,
        candidates: &mut Vec<PlacementCandidate>,
    ) -> StartDecision {
        let members = compatible(view, desc);
        for m in members.iter().filter(|m| m.location.pos != UNKNOWN_POS) {
            let saving = m.remaining_pages.min(desc.est_pages) as f64;
            candidates.push(PlacementCandidate {
                scan: Some(m.id),
                location: m.location,
                saving_pages: saving,
                // Rank by recency: ids ascend in start order, so the
                // newest scan scores highest.
                score: m.id.0 as f64,
                speed: m.speed,
            });
        }
        match members
            .iter()
            .filter(|m| m.location.pos != UNKNOWN_POS)
            .max_by_key(|m| m.id)
        {
            Some(m) => StartDecision::JoinAt {
                location: m.location,
                scan: Some(m.id),
                back_up_pages: 0,
            },
            None => StartDecision::FromStart,
        }
    }

    fn throttles(&self) -> bool {
        false
    }

    fn prioritizes(&self) -> bool {
        false
    }

    fn placement_threshold(&self, _cfg: &SharingConfig) -> f64 {
        0.0
    }

    /// Attach-style sharing attaches unconditionally in pull mode, so it
    /// rides any driver in push mode too, whatever the missed prefix.
    fn attach_push(&self, _missed_pages: u64, _range_pages: u64) -> bool {
        true
    }
}

/// Elevator policy: one circulating read cursor per table. The cursor is
/// materialized by the front-most ongoing scan (largest position); a new
/// scan attaches there and relies on the engine's wrap-around phase to
/// cover the part behind the cursor. When the table is idle the cursor
/// rests where the last scan ended, so the next scan resumes from that
/// position regardless of cache churn — elevator ordering is positional,
/// not cache-estimated. No throttling and no page priorities: the cursor
/// never waits for stragglers.
///
/// Index-scan positions are only comparable within an anchor group, so
/// for index scans "front-most" is an approximation based on the reported
/// physical position; table scans (where positions are page numbers) are
/// the policy's home turf.
#[derive(Debug, Default, Clone, Copy)]
pub struct ElevatorPolicy;

impl SharingPolicy for ElevatorPolicy {
    fn kind(&self) -> SharingPolicyKind {
        SharingPolicyKind::Elevator
    }

    /// The elevator cursor *is* a push driver: scans always ride it and
    /// cover what they missed on the wrap, so push attach is
    /// unconditional here too.
    fn attach_push(&self, _missed_pages: u64, _range_pages: u64) -> bool {
        true
    }

    fn place(
        &self,
        view: &PolicyView,
        desc: &ScanDesc,
        candidates: &mut Vec<PlacementCandidate>,
    ) -> StartDecision {
        let members = compatible(view, desc);
        for m in members.iter().filter(|m| m.location.pos != UNKNOWN_POS) {
            let saving = m.remaining_pages.min(desc.est_pages) as f64;
            candidates.push(PlacementCandidate {
                scan: Some(m.id),
                location: m.location,
                saving_pages: saving,
                // Rank by position: the cursor is the front-most scan.
                score: m.location.pos as f64,
                speed: m.speed,
            });
        }
        // The cursor: the front-most ongoing scan (ties broken toward the
        // older scan, which has been defining the cursor for longer).
        if let Some(m) = members
            .iter()
            .filter(|m| m.location.pos != UNKNOWN_POS)
            .max_by_key(|m| (m.location.pos, std::cmp::Reverse(m.id)))
        {
            return StartDecision::JoinAt {
                location: m.location,
                scan: Some(m.id),
                back_up_pages: 0,
            };
        }
        // Idle table: the cursor rests where the last scan stopped.
        if let Some(fin) = &view.last_finished {
            if fin.kind == desc.kind
                && desc.contains_key(fin.location.key)
                && fin.location.pos != UNKNOWN_POS
            {
                candidates.push(PlacementCandidate {
                    scan: None,
                    location: fin.location,
                    saving_pages: 0.0,
                    score: fin.location.pos as f64,
                    speed: 0.0,
                });
                return StartDecision::JoinAt {
                    location: fin.location,
                    scan: None,
                    back_up_pages: 0,
                };
            }
        }
        StartDecision::FromStart
    }

    fn throttles(&self) -> bool {
        false
    }

    fn prioritizes(&self) -> bool {
        false
    }

    fn placement_threshold(&self, _cfg: &SharingConfig) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn kind_round_trips_through_strings() {
        for kind in [
            SharingPolicyKind::Grouping,
            SharingPolicyKind::Attach,
            SharingPolicyKind::Elevator,
        ] {
            assert_eq!(SharingPolicyKind::from_str(kind.as_str()), Ok(kind));
        }
        assert!(SharingPolicyKind::from_str("lru").is_err());
    }

    #[test]
    fn default_kind_is_grouping() {
        assert_eq!(SharingPolicyKind::default(), SharingPolicyKind::Grouping);
        assert_eq!(
            policy_for(SharingPolicyKind::default()).kind(),
            SharingPolicyKind::Grouping
        );
    }

    #[test]
    fn grouping_is_the_only_policy_with_feedback_mechanisms() {
        assert!(GroupingPolicy.throttles() && GroupingPolicy.prioritizes());
        assert!(!AttachPolicy.throttles() && !AttachPolicy.prioritizes());
        assert!(!ElevatorPolicy.throttles() && !ElevatorPolicy.prioritizes());
    }

    #[test]
    fn push_attach_thresholds_follow_the_pull_instincts() {
        // Grouping: attach while the missed prefix stays a small slice
        // of the lap; refuse once the private replay would rival the
        // shared remainder.
        assert!(GroupingPolicy.attach_push(0, 1000));
        assert!(GroupingPolicy.attach_push(200, 1000));
        assert!(!GroupingPolicy.attach_push(201, 1000));
        // Attach and elevator ride the cursor unconditionally.
        assert!(AttachPolicy.attach_push(999, 1000));
        assert!(ElevatorPolicy.attach_push(999, 1000));
    }
}
