//! Sharing policies: *how* concurrent scans share pages.
//!
//! The papers' grouping+throttling machinery is one point in a design
//! space that *From Cooperative Scans to Predictive Buffer Management*
//! (Świtakowski, Boncz, Zukowski) lays out more broadly: simpler engines
//! attach a new scan to a running one, column stores circulate a single
//! elevator cursor per table, and the paper under reproduction adds
//! placement scoring, leader/trailer throttling, and page priorities.
//!
//! A run says each mechanism once, in its [`SharingConfig`]: where a new
//! scan starts is its [`Placement`] (the paper's, one of its variants,
//! or a related-work scheme), and throttling and page priorities are
//! [`SharingConfig::enable_throttling`] and
//! [`SharingConfig::enable_priorities`] under every placement. This
//! module answers **where a new scan starts** (`place`), the threshold
//! recorded on placement provenance (`placement_threshold`), and whether
//! a push-mode joiner rides a running group driver (`attach_push`). The
//! manager keeps the bookkeeping every placement needs (anchors, groups,
//! speeds, statistics, provenance) and hands its own scan records to
//! `place`.

use std::cmp::Reverse;

use crate::config::{Placement, SharingConfig};
use crate::decision::PlacementCandidate;
use crate::manager::{FinishedScan, StartDecision, UNKNOWN_POS};
use crate::placement::{best_start_optimal, best_start_practical, Trace};
use crate::scan::{Location, ScanDesc, ScanId, ScanKind, ScanState};
use crate::stats::SharingStats;

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
    let decision = match cfg.placement {
        Placement::FromStart => StartDecision::FromStart,
        Placement::Practical | Placement::Optimal | Placement::AlwaysAttach => place_grouping(
            cfg,
            scans,
            last_finished,
            total_pages_advanced,
            desc,
            candidates,
            stats,
        ),
        Placement::Attach => place_attach(scans, desc, candidates),
        Placement::Elevator => place_elevator(scans, last_finished, desc, candidates, stats),
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

/// Minimum absolute saving (pages) a placement candidate must offer, as
/// recorded on placement provenance events. The paper's scoring
/// placements require one extent's worth of saving; the attach-style
/// placements join unconditionally and `FromStart` scores nothing, so
/// their threshold is zero.
pub(crate) fn placement_threshold(cfg: &SharingConfig) -> f64 {
    match cfg.placement {
        Placement::Practical | Placement::Optimal => cfg.extent_pages as f64,
        _ => 0.0,
    }
}

/// Push delivery only: should a new consumer attach to a group driver
/// that has already delivered `missed_pages` of its `range_pages`-page
/// lap, replaying the missed prefix through a private pull cursor — or
/// found a fresh driver of its own?
///
/// The paper's placements follow their sharing-potential instinct:
/// attach while the shared remainder dwarfs the private replay (missed
/// prefix at most a fifth of the lap — the replay is pure duplicate
/// fixing, so keeping it small is what holds a group's fixes-per-page
/// near one). [`Placement::Attach`] attaches unconditionally in pull
/// mode, and the elevator cursor *is* a push driver that scans always
/// ride and cover what they missed on the wrap, so both ride any driver.
pub(crate) fn attach_push(cfg: &SharingConfig, missed_pages: u64, range_pages: u64) -> bool {
    cfg.placement.is_baseline() || missed_pages.saturating_mul(5) <= range_pages
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
    if cfg.placement == Placement::AlwaysAttach {
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
    if cfg.placement == Placement::Optimal && desc.kind == ScanKind::Table {
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

/// [`Placement::Attach`]: join the newest compatible scan.
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

/// [`Placement::Elevator`]: join the cursor, or where the last scan
/// stopped when the table is idle.
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
    use Placement::{AlwaysAttach, Attach, Elevator, FromStart, Optimal, Practical};

    const PLACEMENTS: [Placement; 6] = [
        FromStart,
        Practical,
        Optimal,
        AlwaysAttach,
        Attach,
        Elevator,
    ];

    #[test]
    fn default_kind_is_grouping() {
        assert_eq!(Placement::default(), Practical);
        assert_eq!(SharingConfig::new(100).placement, Practical);
        for p in PLACEMENTS {
            let name = p.policy_name();
            assert_eq!(p.is_baseline(), name != "grouping", "{p:?}");
        }
    }

    #[test]
    fn only_scoring_grouping_placement_has_a_threshold() {
        for p in PLACEMENTS {
            let cfg = SharingConfig {
                placement: p,
                ..SharingConfig::new(100)
            };
            let scoring = matches!(p, Practical | Optimal);
            assert_eq!(placement_threshold(&cfg), if scoring { 16.0 } else { 0.0 });
        }
    }

    #[test]
    fn push_attach_thresholds_follow_the_pull_instincts() {
        for p in PLACEMENTS {
            let cfg = SharingConfig::baseline(100, p);
            // The paper's placements attach while the missed prefix stays
            // a small slice of the lap, and refuse once the private
            // replay would rival the shared remainder; attach and
            // elevator ride the cursor unconditionally.
            assert!(attach_push(&cfg, 0, 1000));
            assert!(attach_push(&cfg, 200, 1000));
            assert_eq!(attach_push(&cfg, 201, 1000), p.is_baseline(), "{p:?}");
            assert_eq!(attach_push(&cfg, 999, 1000), p.is_baseline(), "{p:?}");
        }
    }
}
