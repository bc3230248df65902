//! Scan grouping and leader/trailer classification (§7.2, Figure 14).
//!
//! Scans that are close together in the anchor partial order are formed
//! into **scan groups**, greedily merging the closest pairs first until
//! the combined extent of all groups would no longer fit the buffer pool.
//! Within each group, the scan furthest ahead is the **leader** and the
//! scan furthest behind the **trailer**: leaders get throttled when they
//! drift away, trailers mark their pages cheap to evict.

use serde::{Deserialize, Serialize};

use crate::anchor::AnchorId;
use crate::scan::ScanId;

/// A scan's role within its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Front of a multi-scan group (largest offset).
    Leader,
    /// Back of a multi-scan group (smallest offset).
    Trailer,
    /// Between leader and trailer.
    Middle,
    /// Alone in its group — "leader and trailer" at once, like scan A in
    /// the paper's Figure 14 walk-through.
    Singleton,
}

/// One formed group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupInfo {
    /// The anchor all members share.
    pub anchor: AnchorId,
    /// Members in increasing offset order (trailer first, leader last).
    pub members: Vec<ScanId>,
    /// Leader-to-trailer distance in pages.
    pub extent: u64,
}

impl GroupInfo {
    /// The group's trailer (smallest offset).
    pub fn trailer(&self) -> ScanId {
        *self.members.first().expect("groups are nonempty")
    }

    /// The group's leader (largest offset).
    pub fn leader(&self) -> ScanId {
        *self.members.last().expect("groups are nonempty")
    }
}

/// The result of a grouping pass.
#[derive(Debug, Clone, Default)]
pub struct Groups {
    /// All groups (multi-member and singleton), by anchor, then by the
    /// trailer's offset.
    pub groups: Vec<GroupInfo>,
    /// `(scan, index into groups, role)`, ascending by scan id.
    roles: Vec<(ScanId, usize, Role)>,
}

impl Groups {
    fn entry(&self, id: ScanId) -> Option<&(ScanId, usize, Role)> {
        let i = self.roles.binary_search_by_key(&id, |r| r.0).ok()?;
        Some(&self.roles[i])
    }

    /// The role of `id`, if it was part of the grouping input.
    pub fn role(&self, id: ScanId) -> Option<Role> {
        self.entry(id).map(|&(_, _, r)| r)
    }

    /// The group containing `id`.
    pub fn group_of(&self, id: ScanId) -> Option<&GroupInfo> {
        self.entry(id).map(|&(_, g, _)| &self.groups[g])
    }

    /// Sum of extents over all groups (singletons contribute 0).
    pub fn total_extent(&self) -> u64 {
        self.groups.iter().map(|g| g.extent).sum()
    }
}

/// `findLeadersTrailers` (Figure 14): form groups from scans described by
/// `(id, anchor, offset)` triples, with the buffer pool size (in pages) as
/// the extent budget.
///
/// ```
/// use scanshare::grouping::{find_leaders_trailers, Role};
/// use scanshare::anchor::AnchorId;
/// use scanshare::ScanId;
///
/// // Two scans 10 pages apart in one anchor group: they form a group
/// // under a 50-page budget, the one ahead is the leader.
/// let scans = [
///     (ScanId(0), AnchorId(0), 40),
///     (ScanId(1), AnchorId(0), 50),
/// ];
/// let groups = find_leaders_trailers(&scans, 50);
/// assert_eq!(groups.role(ScanId(1)), Some(Role::Leader));
/// assert_eq!(groups.role(ScanId(0)), Some(Role::Trailer));
/// ```
///
/// Pairs of offset-adjacent scans are merged in increasing-distance order
/// as long as the total extent of all formed groups stays below
/// `pool_pages`; the first merge that would reach the budget stops the
/// process (this reproduces the paper's worked example exactly — see the
/// `figure14_worked_example` test). Scan ids are expected to be distinct.
///
/// Cost: O(L log L) for L scans — two sorts and linear passes. The
/// manager runs this on every location update, so it matters: until
/// ISSUE 14 the total extent was recomputed from all chains after every
/// greedy merge (O(L²)) around three hash maps — 9.5 µs per call for one
/// group of 64 against 1.7 µs now (`find_leaders_trailers_one_group_64`
/// in `crates/bench/benches/uncovered.rs`; DESIGN.md §9d).
pub fn find_leaders_trailers(scans: &[(ScanId, AnchorId, i64)], pool_pages: u64) -> Groups {
    group_chains(
        scans
            .iter()
            .map(|&(id, anchor, offset)| (anchor, offset, id))
            .collect(),
        pool_pages,
    )
}

/// [`find_leaders_trailers`] over `(anchor, offset, id)` triples, which
/// is the order the pass sorts by: afterwards every anchor group is one
/// contiguous chain in offset order, and gap `g` lies between
/// `chain[g]` and `chain[g + 1]`.
pub(crate) fn group_chains(mut chain: Vec<(AnchorId, i64, ScanId)>, pool_pages: u64) -> Groups {
    chain.sort_unstable();

    // Candidate pairs: consecutive scans of one anchor group, closest
    // first (ties in anchor-then-offset order, which is gap order).
    let mut pairs: Vec<(u64, usize)> = chain
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[0].0 == w[1].0)
        .map(|(g, w)| (w[1].1.abs_diff(w[0].1), g))
        .collect();
    pairs.sort_unstable();

    // Greedy merge with the budget check. A group's extent is the sum of
    // its merged gaps, so joining a gap of distance `d` raises the total
    // extent by exactly `d`; a total past u64::MAX is over any budget.
    let mut merged = vec![false; chain.len().saturating_sub(1)];
    let mut total = 0u64;
    for &(d, g) in &pairs {
        match total.checked_add(d) {
            Some(t) if t < pool_pages => total = t,
            _ => break,
        }
        merged[g] = true;
    }

    // Materialize groups from the merged runs.
    let mut groups = Groups {
        groups: Vec::new(),
        roles: Vec::with_capacity(chain.len()),
    };
    let mut run_start = 0usize;
    for last in 0..chain.len() {
        if last + 1 < chain.len() && merged[last] {
            continue;
        }
        let run = &chain[run_start..=last];
        let gidx = groups.groups.len();
        for (mi, &(_, _, id)) in run.iter().enumerate() {
            let role = if run.len() == 1 {
                Role::Singleton
            } else if mi == 0 {
                Role::Trailer
            } else if mi == run.len() - 1 {
                Role::Leader
            } else {
                Role::Middle
            };
            groups.roles.push((id, gidx, role));
        }
        groups.groups.push(GroupInfo {
            anchor: run[0].0,
            members: run.iter().map(|&(_, _, id)| id).collect(),
            extent: run[run.len() - 1].1.abs_diff(run[0].1),
        });
        run_start = last + 1;
    }
    groups.roles.sort_unstable_by_key(|r| r.0);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u64) -> ScanId {
        ScanId(n)
    }

    /// The paper's worked example (§7.2 / Figures 6 and 14): scans
    /// A,B,C,D share one anchor with offsets 10,50,60,75; E,F share
    /// another with offsets 20,40. With a 50-page pool, merging by
    /// increasing pair distance forms (B,C), then (B,C,D), then (E,F),
    /// and must stop before (A,B) — the final groups are (A) with extent
    /// 0, (B,C,D) with extent 25, (E,F) with extent 20, total 45 < 50.
    /// B is trailer and D leader of the middle group; E trailer, F
    /// leader; A is both.
    #[test]
    fn figure14_worked_example() {
        let g1 = AnchorId(1);
        let g2 = AnchorId(2);
        let (a, b, c, d, e, f) = (sid(0), sid(1), sid(2), sid(3), sid(4), sid(5));
        let scans = vec![
            (a, g1, 10),
            (b, g1, 50),
            (c, g1, 60),
            (d, g1, 75),
            (e, g2, 20),
            (f, g2, 40),
        ];
        let groups = find_leaders_trailers(&scans, 50);

        assert_eq!(groups.total_extent(), 45);
        assert_eq!(groups.role(a), Some(Role::Singleton));
        assert_eq!(groups.role(b), Some(Role::Trailer));
        assert_eq!(groups.role(c), Some(Role::Middle));
        assert_eq!(groups.role(d), Some(Role::Leader));
        assert_eq!(groups.role(e), Some(Role::Trailer));
        assert_eq!(groups.role(f), Some(Role::Leader));

        let bcd = groups.group_of(b).unwrap();
        assert_eq!(bcd.members, vec![b, c, d]);
        assert_eq!(bcd.extent, 25);
        assert_eq!(bcd.trailer(), b);
        assert_eq!(bcd.leader(), d);
        let ef = groups.group_of(e).unwrap();
        assert_eq!(ef.extent, 20);
        let ag = groups.group_of(a).unwrap();
        assert_eq!(ag.extent, 0);
        assert_eq!(ag.members, vec![a]);
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let groups = find_leaders_trailers(&[], 100);
        assert!(groups.groups.is_empty());
        assert_eq!(groups.role(sid(0)), None);
    }

    #[test]
    fn single_scan_is_singleton() {
        let groups = find_leaders_trailers(&[(sid(7), AnchorId(0), 42)], 100);
        assert_eq!(groups.role(sid(7)), Some(Role::Singleton));
        assert_eq!(groups.groups.len(), 1);
    }

    #[test]
    fn zero_budget_forms_no_multi_groups() {
        let g = AnchorId(0);
        let scans = vec![(sid(0), g, 0), (sid(1), g, 1)];
        let groups = find_leaders_trailers(&scans, 0);
        assert_eq!(groups.role(sid(0)), Some(Role::Singleton));
        assert_eq!(groups.role(sid(1)), Some(Role::Singleton));
    }

    #[test]
    fn everything_merges_under_a_big_budget() {
        let g = AnchorId(0);
        let scans: Vec<_> = (0..5).map(|i| (sid(i), g, (i * 10) as i64)).collect();
        let groups = find_leaders_trailers(&scans, 1_000_000);
        assert_eq!(groups.groups.len(), 1);
        assert_eq!(groups.groups[0].extent, 40);
        assert_eq!(groups.role(sid(0)), Some(Role::Trailer));
        assert_eq!(groups.role(sid(4)), Some(Role::Leader));
        for i in 1..4 {
            assert_eq!(groups.role(sid(i)), Some(Role::Middle));
        }
    }

    #[test]
    fn closest_pairs_win_the_budget() {
        let g = AnchorId(0);
        // Offsets 0, 100, 102: only (100,102) fits a 10-page budget.
        let scans = vec![(sid(0), g, 0), (sid(1), g, 100), (sid(2), g, 102)];
        let groups = find_leaders_trailers(&scans, 10);
        assert_eq!(groups.role(sid(0)), Some(Role::Singleton));
        assert_eq!(groups.role(sid(1)), Some(Role::Trailer));
        assert_eq!(groups.role(sid(2)), Some(Role::Leader));
    }

    #[test]
    fn scans_at_equal_offsets_group_with_zero_extent() {
        let g = AnchorId(0);
        let scans = vec![(sid(0), g, 5), (sid(1), g, 5), (sid(2), g, 5)];
        let groups = find_leaders_trailers(&scans, 10);
        assert_eq!(groups.groups.len(), 1);
        assert_eq!(groups.groups[0].extent, 0);
    }

    #[test]
    fn merging_is_transitive_across_a_chain() {
        let g = AnchorId(0);
        // 0-5-10-15: all gaps are 5; budget 40 admits the whole chain
        // (extent 15).
        let scans: Vec<_> = (0..4).map(|i| (sid(i), g, (i * 5) as i64)).collect();
        let groups = find_leaders_trailers(&scans, 40);
        assert_eq!(groups.groups.len(), 1);
        assert_eq!(groups.groups[0].members.len(), 4);
    }

    /// Runs of one chain under its `merged` flags (`merged[g]`: scan `g`
    /// is joined to scan `g + 1`; the last flag is never set).
    fn runs(merged: &[bool]) -> Vec<(usize, usize)> {
        let mut first = 0;
        let open_ends = merged.iter().enumerate().filter(|(_, &m)| !m);
        open_ends
            .map(|(last, _)| (std::mem::replace(&mut first, last + 1), last))
            .collect()
    }

    /// Figure 14 as first written — chain by chain, the total extent
    /// rescanned from every chain after each merge (in u128, so offsets
    /// at both ends of i64 cannot overflow it) — kept as the oracle for
    /// the running-total pass. Returns the groups and each scan's role.
    fn naive(
        scans: &[(ScanId, AnchorId, i64)],
        pool_pages: u64,
    ) -> (Vec<GroupInfo>, Vec<(ScanId, Role)>) {
        let mut anchors: Vec<AnchorId> = scans.iter().map(|s| s.1).collect();
        anchors.sort();
        anchors.dedup();
        let chain_of = |a: &AnchorId| {
            let of_anchor = scans.iter().filter(|s| s.1 == *a);
            let mut chain: Vec<(i64, ScanId)> = of_anchor.map(|s| (s.2, s.0)).collect();
            chain.sort();
            chain
        };
        let chains: Vec<Vec<(i64, ScanId)>> = anchors.iter().map(chain_of).collect();
        let mut pairs = Vec::new();
        for (ci, chain) in chains.iter().enumerate() {
            for (gi, w) in chain.windows(2).enumerate() {
                pairs.push((w[1].0.abs_diff(w[0].0), ci, gi));
            }
        }
        pairs.sort();
        let mut merged: Vec<Vec<bool>> = chains.iter().map(|c| vec![false; c.len()]).collect();
        for &(_, ci, gi) in &pairs {
            merged[ci][gi] = true;
            let mut total = 0u128;
            for (chain, merged) in chains.iter().zip(&merged) {
                for (first, last) in runs(merged) {
                    total += chain[last].0.abs_diff(chain[first].0) as u128;
                }
            }
            if total >= pool_pages as u128 {
                merged[ci][gi] = false;
                break;
            }
        }
        let (mut groups, mut roles) = (Vec::new(), Vec::new());
        for ((chain, merged), &anchor) in chains.iter().zip(&merged).zip(&anchors) {
            for (first, last) in runs(merged) {
                let run = &chain[first..=last];
                for (mi, &(_, id)) in run.iter().enumerate() {
                    let role = match mi {
                        _ if run.len() == 1 => Role::Singleton,
                        0 => Role::Trailer,
                        mi if mi == run.len() - 1 => Role::Leader,
                        _ => Role::Middle,
                    };
                    roles.push((id, role));
                }
                groups.push(GroupInfo {
                    anchor,
                    members: run.iter().map(|&(_, id)| id).collect(),
                    extent: chain[last].0.abs_diff(chain[first].0),
                });
            }
        }
        (groups, roles)
    }

    /// 3 000 seeded inputs: several anchors, ids in shuffled order,
    /// offsets from palettes that collide (equal offsets, equal gaps) and
    /// that sit at both ends of i64, budgets from 0 to u64::MAX.
    #[test]
    fn running_total_matches_the_rescanning_pass() {
        use scanshare_prng::Rng;
        let budgets = [0, 1, 10, 50, 1000, 1 << 40, u64::MAX - 1, u64::MAX];
        let mut rng = Rng::seed_from_u64(14);
        let mut multi = 0;
        for case in 0..3000 {
            let n = rng.bounded_u64(25);
            let n_anchors = 1 + rng.bounded_u64(4);
            let mut ids: Vec<u64> = (0..n).collect();
            rng.shuffle(&mut ids);
            let scans: Vec<_> = ids
                .iter()
                .map(|&id| {
                    let near = rng.bounded_u64(8) as i64 * 5;
                    let offset = match rng.bounded_u64(if case % 3 == 0 { 6 } else { 3 }) {
                        0 | 1 => near,
                        2 => rng.bounded_u64(2000) as i64 - 1000,
                        3 => i64::MIN + near,
                        4 => i64::MAX - near,
                        _ => rng.next_u64() as i64,
                    };
                    (ScanId(id), AnchorId(rng.bounded_u64(n_anchors)), offset)
                })
                .collect();
            let budget = match rng.bounded_u64(3) {
                0 => rng.bounded_u64(200),
                _ => *rng.choose(&budgets).unwrap(),
            };

            let got = find_leaders_trailers(&scans, budget);
            let (groups, roles) = naive(&scans, budget);
            assert_eq!(got.groups, groups, "case {case}: {scans:?} budget {budget}");
            for (id, role) in roles {
                assert_eq!(got.role(id), Some(role), "case {case}: {id:?}");
                assert!(got.group_of(id).unwrap().members.contains(&id));
            }
            assert_eq!(got.role(ScanId(n)), None);
            multi += got.groups.iter().filter(|g| g.members.len() > 1).count();
        }
        assert!(multi > 1000, "only {multi} multi-scan groups formed");
    }
}
