//! Sharing policies: *how* concurrent scans share pages.
//!
//! The papers' grouping+throttling machinery is one point in a design
//! space that *From Cooperative Scans to Predictive Buffer Management*
//! (Świtakowski, Boncz, Zukowski) lays out more broadly: simpler engines
//! attach a new scan to a running one, column stores circulate a single
//! elevator cursor per table, and the paper under reproduction adds
//! placement scoring, leader/trailer throttling, and page priorities.
//!
//! [`SharingPolicyKind`] names the policy a run uses, and this module is
//! the one place that answers, from a [`SharingConfig`] (which carries
//! the kind and the ablation switches), what the policy decides: **where
//! a new scan starts** (`place`, gated by
//! [`SharingConfig::enable_placement`]), **whether drifting leaders are
//! throttled** (`throttles`) and **whether leader/trailer pages are
//! re-prioritized** (`prioritizes`), both with their switch folded in,
//! the threshold recorded on placement provenance
//! (`placement_threshold`), and whether a push-mode joiner rides a
//! running group driver (`attach_push`). The manager keeps the
//! bookkeeping every policy needs (anchors, groups, speeds, statistics,
//! provenance) and hands its own scan records to `place`.
//!
//! A run's policy is [`SharingConfig::policy`], the `policy` field of its
//! workload spec's `mode.ScanSharing`.

use std::cmp::Reverse;

use serde::{Deserialize, Serialize};

use crate::config::{PlacementStrategy, SharingConfig};
use crate::decision::PlacementCandidate;
use crate::manager::{FinishedScan, StartDecision, UNKNOWN_POS};
use crate::placement::{best_start_optimal, best_start_practical, Trace};
use crate::scan::{Location, ScanDesc, ScanId, ScanKind, ScanState};
use crate::stats::SharingStats;

/// Which sharing policy a run uses, selected in [`SharingConfig::policy`]
/// (and therefore in workload specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SharingPolicyKind {
    /// The paper's policy (the default): §6.3 placement, with the optimal
    /// and always-attach variants of [`PlacementStrategy`], leader
    /// throttling and page re-prioritization. Runs under it are
    /// byte-identical to the code before policies were selectable (a
    /// property pinned by CI).
    #[default]
    Grouping,
    /// Baseline attach: a new scan jumps to the **newest** compatible
    /// scan's position — no sharing-potential estimation, no throttling,
    /// no page priorities. The newest scan is the one whose already-read
    /// pages are most likely still pool-resident, which is the entire
    /// intuition of attach-style sharing; contrast with
    /// [`PlacementStrategy::AlwaysAttach`] under `Grouping`, which
    /// attaches to the scan with the most *remaining work*.
    Attach,
    /// One circulating read cursor per table. The cursor is materialized
    /// by the front-most ongoing scan (largest position); a new scan
    /// attaches there and relies on the engine's wrap-around phase to
    /// cover the part behind the cursor. When the table is idle the
    /// cursor rests where the last scan ended, so the next scan resumes
    /// from that position regardless of cache churn — elevator ordering
    /// is positional, not cache-estimated. No throttling and no page
    /// priorities: the cursor never waits for stragglers.
    ///
    /// Index-scan positions are only comparable within an anchor group,
    /// so for index scans "front-most" is an approximation based on the
    /// reported physical position; table scans (where positions are page
    /// numbers) are the policy's home turf.
    Elevator,
}

impl SharingPolicyKind {
    /// The policy's name as reports and narratives print it (`grouping`,
    /// `attach`, `elevator`).
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

/// Decide where a new scan described by `desc` starts, given the ongoing
/// `scans` (every object, every kind, ascending by id), the most recently
/// finished scan on `desc`'s object, and the pages advanced by all scans
/// so far (the buffer-churn proxy for the leftover-cache check). Every
/// start location scored along the way — winners and rejected candidates
/// alike — is appended to `candidates` so the decision-provenance event
/// carries the full field the policy chose from, and the decision is
/// counted in `stats`. Deterministic: the same inputs give the same
/// decision and the same candidates.
pub(crate) fn place(
    cfg: &SharingConfig,
    scans: &[ScanState],
    last_finished: Option<&FinishedScan>,
    total_pages_advanced: u64,
    desc: &ScanDesc,
    candidates: &mut Vec<PlacementCandidate>,
    stats: &mut SharingStats,
) -> StartDecision {
    let decision = if !cfg.enable_placement {
        StartDecision::FromStart
    } else {
        match cfg.policy {
            SharingPolicyKind::Grouping => place_grouping(
                cfg,
                scans,
                last_finished,
                total_pages_advanced,
                desc,
                candidates,
                stats,
            ),
            SharingPolicyKind::Attach => place_attach(scans, desc, candidates),
            SharingPolicyKind::Elevator => {
                place_elevator(scans, last_finished, desc, candidates, stats)
            }
        }
    };
    match decision {
        StartDecision::JoinAt { scan: Some(_), .. } => stats.scans_joined += 1,
        // A join at no ongoing scan is a leftover join or an optimal
        // placement; the branch that made it counted which.
        StartDecision::JoinAt { scan: None, .. } => {}
        StartDecision::FromStart => stats.scans_from_start += 1,
    }
    decision
}

/// Whether group leaders are throttled to keep groups together: the
/// configuration enables it and the policy uses it.
pub(crate) fn throttles(cfg: &SharingConfig) -> bool {
    cfg.enable_throttling && cfg.policy == SharingPolicyKind::Grouping
}

/// Whether leader/trailer page re-prioritization is in effect: the
/// configuration enables it and the policy uses it.
pub(crate) fn prioritizes(cfg: &SharingConfig) -> bool {
    cfg.enable_priorities && cfg.policy == SharingPolicyKind::Grouping
}

/// Minimum absolute saving (pages) a placement candidate must offer, as
/// recorded on placement provenance events. The grouping policy's
/// scoring strategies require one extent's worth of saving;
/// `AlwaysAttach` and the baseline policies join unconditionally, so
/// their threshold is zero.
pub(crate) fn placement_threshold(cfg: &SharingConfig) -> f64 {
    if cfg.policy == SharingPolicyKind::Grouping
        && cfg.enable_placement
        && cfg.placement_strategy != PlacementStrategy::AlwaysAttach
    {
        cfg.extent_pages as f64
    } else {
        0.0
    }
}

/// Push delivery only: should a new consumer attach to a group driver
/// that has already delivered `missed_pages` of its `range_pages`-page
/// lap, replaying the missed prefix through a private pull cursor — or
/// found a fresh driver of its own?
///
/// The grouping policy follows its sharing-potential instinct: attach
/// while the shared remainder dwarfs the private replay (missed prefix at
/// most a fifth of the lap — the replay is pure duplicate fixing, so
/// keeping it small is what holds a group's fixes-per-page near one).
/// Attach-style sharing attaches unconditionally in pull mode, and the
/// elevator cursor *is* a push driver that scans always ride and cover
/// what they missed on the wrap, so both ride any driver.
pub(crate) fn attach_push(cfg: &SharingConfig, missed_pages: u64, range_pages: u64) -> bool {
    match cfg.policy {
        SharingPolicyKind::Grouping => missed_pages.saturating_mul(5) <= range_pages,
        SharingPolicyKind::Attach | SharingPolicyKind::Elevator => true,
    }
}

/// Ongoing scans a new scan could share pages with: same object, same
/// kind, current key inside the new scan's range (a scan whose location
/// is outside the range cannot be joined — §6). `scans` is sorted by id,
/// so the result is too.
fn compatible<'a>(scans: &'a [ScanState], desc: &ScanDesc) -> Vec<&'a ScanState> {
    scans
        .iter()
        .filter(|s| {
            s.desc.object == desc.object
                && s.desc.kind == desc.kind
                && desc.contains_key(s.location.key)
        })
        .collect()
}

/// The placement logic of §6.3 (Figure 13), generalized over scan kinds:
/// collect the anchor groups on the same object that overlap the new
/// scan's key range, score each member's current location with
/// `calculateReads`, and pick the best-saving candidate. With no ongoing
/// scans, fall back to the most recently finished scan's location.
fn place_grouping(
    cfg: &SharingConfig,
    scans: &[ScanState],
    last_finished: Option<&FinishedScan>,
    total_pages_advanced: u64,
    desc: &ScanDesc,
    candidates: &mut Vec<PlacementCandidate>,
    stats: &mut SharingStats,
) -> StartDecision {
    let mut members = compatible(scans, desc);

    if members.is_empty() {
        // Figure 13 line 2: join the last finished scan's leftovers.
        let any_ongoing = scans
            .iter()
            .any(|s| s.desc.object == desc.object && s.desc.kind == desc.kind);
        if !any_ongoing {
            if let Some(fin) = last_finished {
                let still_cached =
                    total_pages_advanced.saturating_sub(fin.churn_at_end) < cfg.pool_pages;
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
                    stats.scans_joined_finished += 1;
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
        return join_max(
            &members,
            desc,
            candidates,
            |_, saving| saving / desc.est_pages.max(1) as f64,
            |m| (m.remaining_pages, Reverse(m.id)),
        )
        .unwrap_or(StartDecision::FromStart);
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
                stats.scans_placed_optimal += 1;
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

/// Attach-style placement: every compatible member at a known location
/// is a candidate, scored by `score(member, saving)`, and the new scan
/// joins the member with the greatest `key` — `None` when there is none.
fn join_max<K: Ord>(
    members: &[&ScanState],
    desc: &ScanDesc,
    candidates: &mut Vec<PlacementCandidate>,
    score: impl Fn(&ScanState, f64) -> f64,
    key: impl Fn(&ScanState) -> K,
) -> Option<StartDecision> {
    let mut best: Option<&ScanState> = None;
    for &m in members.iter().filter(|m| m.location.pos != UNKNOWN_POS) {
        let saving = m.remaining_pages.min(desc.est_pages) as f64;
        candidates.push(PlacementCandidate {
            scan: Some(m.id),
            location: m.location,
            saving_pages: saving,
            score: score(m, saving),
            speed: m.speed,
        });
        // `>=`: the last of equal keys wins, as with `max_by_key`.
        if best.is_none_or(|b| key(m) >= key(b)) {
            best = Some(m);
        }
    }
    best.map(|m| StartDecision::JoinAt {
        location: m.location,
        scan: Some(m.id),
        back_up_pages: 0,
    })
}

/// [`SharingPolicyKind::Attach`]: join the newest compatible scan.
fn place_attach(
    scans: &[ScanState],
    desc: &ScanDesc,
    candidates: &mut Vec<PlacementCandidate>,
) -> StartDecision {
    // Rank by recency: ids ascend in start order, so the newest scan
    // scores highest.
    join_max(
        &compatible(scans, desc),
        desc,
        candidates,
        |m, _| m.id.0 as f64,
        |m| m.id,
    )
    .unwrap_or(StartDecision::FromStart)
}

/// [`SharingPolicyKind::Elevator`]: join the cursor, or where the last
/// scan stopped when the table is idle.
fn place_elevator(
    scans: &[ScanState],
    last_finished: Option<&FinishedScan>,
    desc: &ScanDesc,
    candidates: &mut Vec<PlacementCandidate>,
    stats: &mut SharingStats,
) -> StartDecision {
    // The cursor: the front-most ongoing scan (ties broken toward the
    // older scan, which has been defining the cursor for longer).
    if let Some(join) = join_max(
        &compatible(scans, desc),
        desc,
        candidates,
        |m, _| m.location.pos as f64,
        |m| (m.location.pos, Reverse(m.id)),
    ) {
        return join;
    }
    // Idle table: the cursor rests where the last scan stopped.
    if let Some(fin) = last_finished {
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
            stats.scans_joined_finished += 1;
            return StartDecision::JoinAt {
                location: fin.location,
                scan: None,
                back_up_pages: 0,
            };
        }
    }
    StartDecision::FromStart
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [SharingPolicyKind; 3] = [
        SharingPolicyKind::Grouping,
        SharingPolicyKind::Attach,
        SharingPolicyKind::Elevator,
    ];

    #[test]
    fn default_kind_is_grouping() {
        assert_eq!(SharingPolicyKind::default(), SharingPolicyKind::Grouping);
        assert_eq!(SharingConfig::new(100).policy, SharingPolicyKind::Grouping);
    }

    #[test]
    fn grouping_is_the_only_policy_with_feedback_mechanisms() {
        for kind in KINDS {
            let on = SharingConfig::with_policy(100, kind);
            let grouping = kind == SharingPolicyKind::Grouping;
            assert_eq!((throttles(&on), prioritizes(&on)), (grouping, grouping));
            // The ablation switches turn a mechanism off under every policy.
            let off = SharingConfig {
                enable_throttling: false,
                enable_priorities: false,
                ..on
            };
            assert!(!throttles(&off) && !prioritizes(&off), "{kind}");
        }
    }

    #[test]
    fn only_scoring_grouping_placement_has_a_threshold() {
        let cfg = |kind, enable_placement, placement_strategy| SharingConfig {
            enable_placement,
            placement_strategy,
            ..SharingConfig::with_policy(100, kind)
        };
        use PlacementStrategy::{AlwaysAttach, Optimal, Practical};
        use SharingPolicyKind::{Attach, Elevator, Grouping};
        assert_eq!(placement_threshold(&cfg(Grouping, true, Practical)), 16.0);
        assert_eq!(placement_threshold(&cfg(Grouping, true, Optimal)), 16.0);
        assert_eq!(placement_threshold(&cfg(Grouping, true, AlwaysAttach)), 0.0);
        assert_eq!(placement_threshold(&cfg(Grouping, false, Practical)), 0.0);
        assert_eq!(placement_threshold(&cfg(Attach, true, Practical)), 0.0);
        assert_eq!(placement_threshold(&cfg(Elevator, true, Optimal)), 0.0);
    }

    #[test]
    fn push_attach_thresholds_follow_the_pull_instincts() {
        let [grouping, attach, elevator] = KINDS.map(|k| SharingConfig::with_policy(100, k));
        // Grouping: attach while the missed prefix stays a small slice
        // of the lap; refuse once the private replay would rival the
        // shared remainder.
        assert!(attach_push(&grouping, 0, 1000));
        assert!(attach_push(&grouping, 200, 1000));
        assert!(!attach_push(&grouping, 201, 1000));
        // Attach and elevator ride the cursor unconditionally.
        assert!(attach_push(&attach, 999, 1000));
        assert!(attach_push(&elevator, 999, 1000));
    }
}
