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
/// Cost: O(L log L) for L scans — a bulk build of the `GroupIndex` the
/// manager keeps, then one pass to materialise it. The manager does not
/// call this: it keeps the index up to date as scans start, move and end
/// and asks it for one scan's group per location update (DESIGN.md §9d).
pub fn find_leaders_trailers(scans: &[(ScanId, AnchorId, i64)], pool_pages: u64) -> Groups {
    let chain = scans.iter().map(|&(id, anchor, at)| (anchor, at, id));
    GroupIndex::build(pool_pages, chain.collect()).groups()
}

/// A scan's place in the chain: by anchor (one contiguous run per anchor
/// group), then offset, then id.
pub(crate) type ChainKey = (AnchorId, i64, ScanId);

/// The gap between chain neighbours `l` and `r`, if both exist and share
/// an anchor, keyed in merge order: closest first, ties in chain order.
fn gap(l: Option<ChainKey>, r: Option<ChainKey>) -> Option<(u64, ChainKey)> {
    let (l, r) = (l?, r?);
    (l.0 == r.0).then(|| (r.1.abs_diff(l.1), l))
}

/// Figure 14's grouping, kept up to date as scans start, move and end.
/// The greedy merges gaps in `(distance, left neighbour)` order and stops
/// at the first that would bring the total extent to the budget, so the
/// merged gaps are a prefix of that order: the index keeps the chain and
/// the gaps sorted and remembers where the prefix ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GroupIndex {
    /// The extent budget (the pool size in pages).
    budget: u64,
    /// Every scan, sorted.
    chain: Vec<ChainKey>,
    /// Every gap between chain neighbours that share an anchor, sorted.
    gaps: Vec<(u64, ChainKey)>,
    /// The first gap the greedy rejects: exactly the gaps that sort
    /// before it are merged (`None`: all of them are).
    cut: Option<(u64, ChainKey)>,
}

/// One scan's group, as [`GroupIndex::member`] finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Membership {
    pub role: Role,
    /// The group's trailer (smallest offset).
    pub trailer: ScanId,
    /// Leader-to-trailer distance in pages.
    pub extent: u64,
    /// Number of scans in the group.
    pub members: usize,
}

impl GroupIndex {
    /// The index over `chain`, in any order, for a pool of `pool_pages`.
    pub(crate) fn build(pool_pages: u64, mut chain: Vec<ChainKey>) -> Self {
        chain.sort_unstable();
        let mut gaps = Vec::with_capacity(chain.len());
        gaps.extend(chain.windows(2).filter_map(|w| gap(Some(w[0]), Some(w[1]))));
        gaps.sort_unstable();
        let mut index = GroupIndex {
            budget: pool_pages,
            chain,
            gaps,
            cut: None,
        };
        index.recut();
        index
    }

    /// The extent budget.
    pub(crate) fn budget(&self) -> u64 {
        self.budget
    }

    /// Move a scan's key from `from` to `to`; `None` on either side adds
    /// or removes the scan.
    pub(crate) fn rekey(&mut self, from: Option<ChainKey>, to: Option<ChainKey>) {
        if let Some(key) = from {
            let i = self.chain.binary_search(&key).expect("the key is indexed");
            self.chain.remove(i);
            let (l, r) = self.around(i);
            self.unlink(gap(l, from));
            self.unlink(gap(from, r));
            self.link(gap(l, r));
        }
        if let Some(key) = to {
            let i = self.chain.binary_search(&key).expect_err("a new key");
            let (l, r) = self.around(i);
            self.chain.insert(i, key);
            self.unlink(gap(l, r));
            self.link(gap(l, to));
            self.link(gap(to, r));
        }
        self.recut();
    }

    /// The chain entries either side of a key that sits, or would sit, at
    /// position `i`.
    fn around(&self, i: usize) -> (Option<ChainKey>, Option<ChainKey>) {
        let left = i.checked_sub(1).map(|j| self.chain[j]);
        (left, self.chain.get(i).copied())
    }

    fn link(&mut self, gap: Option<(u64, ChainKey)>) {
        if let Some(g) = gap {
            let at = self.gaps.binary_search(&g).expect_err("gaps are distinct");
            self.gaps.insert(at, g);
        }
    }

    fn unlink(&mut self, gap: Option<(u64, ChainKey)>) {
        if let Some(g) = gap {
            let at = self.gaps.binary_search(&g).expect("the gap is indexed");
            self.gaps.remove(at);
        }
    }

    /// Merging a gap of distance `d` raises the total extent by exactly
    /// `d`, so the cut is where a running sum first reaches the budget (a
    /// total past `u64::MAX` is over any budget).
    fn recut(&mut self) {
        let mut total = Some(0u64);
        self.cut = self.gaps.iter().copied().find(|g| {
            total = total
                .and_then(|t| t.checked_add(g.0))
                .filter(|&t| t < self.budget);
            total.is_none()
        });
    }

    /// Whether `chain[j]` and `chain[j + 1]` are in one group.
    fn joined(&self, j: usize) -> bool {
        let g = gap(Some(self.chain[j]), Some(self.chain[j + 1]));
        g.is_some_and(|g| self.cut.is_none_or(|cut| g < cut))
    }

    /// The last chain position of the group that continues through `i`.
    fn last_from(&self, mut i: usize) -> usize {
        while i + 1 < self.chain.len() && self.joined(i) {
            i += 1;
        }
        i
    }

    /// The group of the scan at `key`, or `None` if it is not indexed.
    pub(crate) fn member(&self, key: ChainKey) -> Option<Membership> {
        let i = self.chain.binary_search(&key).ok()?;
        let first = (0..i).rev().find(|&j| !self.joined(j)).map_or(0, |j| j + 1);
        let last = self.last_from(i);
        Some(Membership {
            role: role_at(i - first, last - first + 1),
            trailer: self.chain[first].2,
            extent: self.chain[last].1.abs_diff(self.chain[first].1),
            members: last - first + 1,
        })
    }

    /// Every group with its members, and every scan's role.
    pub(crate) fn groups(&self) -> Groups {
        let mut groups = Groups::default();
        groups.roles.reserve(self.chain.len());
        let mut first = 0;
        while first < self.chain.len() {
            let run = &self.chain[first..=self.last_from(first)];
            let gidx = groups.groups.len();
            for (mi, &(_, _, id)) in run.iter().enumerate() {
                groups.roles.push((id, gidx, role_at(mi, run.len())));
            }
            groups.groups.push(GroupInfo {
                anchor: run[0].0,
                members: run.iter().map(|&(_, _, id)| id).collect(),
                extent: run[run.len() - 1].1.abs_diff(run[0].1),
            });
            first += run.len();
        }
        groups.roles.sort_unstable_by_key(|r| r.0);
        groups
    }
}

/// The role of the member at position `mi` (0 = trailer) of a group of
/// `len` scans.
fn role_at(mi: usize, len: usize) -> Role {
    match mi {
        _ if len == 1 => Role::Singleton,
        0 => Role::Trailer,
        mi if mi == len - 1 => Role::Leader,
        _ => Role::Middle,
    }
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

    /// The pass the manager ran on every location update before it kept a
    /// [`GroupIndex`]: sort the chain, sort the gaps by `(distance, chain
    /// position)`, greedy-merge with a running total, materialise — kept
    /// as the reference the index must equal after every change.
    fn group_chains(mut chain: Vec<(AnchorId, i64, ScanId)>, pool_pages: u64) -> Groups {
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

    /// 3 000 seeded sequences of inserts, removes, moves within an anchor
    /// and moves to another anchor (onto another scan's offset, as an
    /// anchor merge does), on up to four anchors sharing one budget, with
    /// offsets that collide, gaps that tie and offsets at both ends of
    /// i64, under budgets 0, 1, small, huge and u64::MAX. After every step
    /// the maintained index equals a bulk build of the same keys, its
    /// groups and roles equal the reference pass's, and every scan's
    /// `member` view agrees with its reference group.
    #[test]
    fn the_maintained_index_equals_the_reference_after_every_step() {
        use scanshare_prng::Rng;
        let budgets = [0, 1, 2, 10, 50, 1000, 1 << 40, u64::MAX - 1, u64::MAX];
        let mut rng = Rng::seed_from_u64(27);
        let (mut steps, mut multi, mut cut_inside) = (0, 0, 0);
        for case in 0..3000 {
            let budget = match rng.bounded_u64(3) {
                0 => rng.bounded_u64(100),
                _ => *rng.choose(&budgets).unwrap(),
            };
            let n_anchors = 1 + rng.bounded_u64(4);
            let wide = case % 3 == 0;
            let offset = |rng: &mut Rng| {
                let near = rng.bounded_u64(8) as i64 * 5;
                match rng.bounded_u64(if wide { 6 } else { 3 }) {
                    0 | 1 => near,
                    2 => rng.bounded_u64(200) as i64 - 100,
                    3 => i64::MIN + near,
                    4 => i64::MAX - near,
                    _ => rng.next_u64() as i64,
                }
            };
            let mut index = GroupIndex::build(budget, Vec::new());
            let mut keys: Vec<ChainKey> = Vec::new();
            let mut next_id = 0;
            for step in 0..(10 + rng.bounded_u64(40)) {
                let op = if keys.is_empty() {
                    0
                } else {
                    rng.bounded_u64(5)
                };
                let k = rng.bounded_u64(keys.len().max(1) as u64) as usize;
                match op {
                    0 | 1 => {
                        let anchor = AnchorId(rng.bounded_u64(n_anchors));
                        let key = (anchor, offset(&mut rng), ScanId(next_id));
                        next_id += 1;
                        index.rekey(None, Some(key));
                        keys.push(key);
                    }
                    2 => index.rekey(Some(keys.swap_remove(k)), None),
                    _ => {
                        let (anchor, _, id) = keys[k];
                        let to = if op == 3 {
                            (anchor, offset(&mut rng), id)
                        } else {
                            let other = *rng.choose(&keys).unwrap();
                            (other.0, other.1, id)
                        };
                        index.rekey(Some(keys[k]), Some(to));
                        keys[k] = to;
                    }
                }
                steps += 1;

                let at = format!("case {case} step {step}: {keys:?} budget {budget}");
                assert_eq!(index, GroupIndex::build(budget, keys.clone()), "{at}");
                let want = group_chains(keys.clone(), budget);
                let got = index.groups();
                assert_eq!(got.groups, want.groups, "{at}");
                assert_eq!(got.roles, want.roles, "{at}");
                for &key in &keys {
                    let g = want.group_of(key.2).unwrap();
                    let m = Membership {
                        role: want.role(key.2).unwrap(),
                        trailer: g.trailer(),
                        extent: g.extent,
                        members: g.members.len(),
                    };
                    assert_eq!(index.member(key), Some(m), "{at}: {key:?}");
                }
                assert_eq!(index.member((AnchorId(0), 0, ScanId(next_id))), None);
                multi += want.groups.iter().filter(|g| g.members.len() > 1).count();
                cut_inside += usize::from(index.cut.is_some_and(|c| c != index.gaps[0]));
            }
        }
        assert!(steps > 75_000, "only {steps} steps");
        assert!(multi > 50_000, "only {multi} multi-scan groups formed");
        assert!(
            cut_inside > 10_000,
            "the cut fell inside the gaps only {cut_inside} times"
        );
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
