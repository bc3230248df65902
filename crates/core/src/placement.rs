//! Placement of new scans: sharing-potential estimation and candidate
//! search (§6, Figures 7–13 of the index-scan paper).
//!
//! The question placement answers: *given the ongoing scans, where should
//! a new scan start so that total physical page reads are minimized?*
//!
//! The estimator works in a one-dimensional **offset coordinate** (an
//! anchor group's offset space for index scans, the page axis for table
//! scans). Every ongoing scan is a [`Trace`] — a straight line in the
//! location/time plane whose slope is the scan's speed, as in the paper's
//! Figures 7–9. Sharing between two scans at a location `x` is possible
//! when the pool does not cycle between their crossing times: the pages
//! churned through the buffer pool between the two visits must not exceed
//! the pool size. The number of active scans determines the churn rate,
//! which is exactly the paper's "envelope" whose width shrinks as more
//! scans run (Figure 11).
//!
//! [`calculate_reads`] discretizes the candidate's range and counts, per
//! cell, how many *clusters* of temporally-close visits occur — each
//! cluster pays one physical read (Figure 10's `reads(r) * pages(r)`
//! summation). Visits that happened just *before* now (a scan that
//! recently passed `x`) cost nothing: those pages are already in the
//! pool, which is why starting right behind an ongoing scan is so
//! attractive (Figure 9).
//!
//! Two search strategies are provided:
//!
//! * [`best_start_optimal`] — the O(|S|³) "interesting locations" search
//!   of §6.2: candidate starts where the new scan's trace enters, centers
//!   on, or leaves an ongoing scan's envelope at each event time,
//! * [`best_start_practical`] — the algorithm of §6.3 used by the
//!   manager: candidates are the current locations of the ongoing scans
//!   in the anchor groups overlapping the new scan's key range.
//!
//! # Cost
//!
//! One estimate sorts the ≤ |S|+1 visits of each of the
//! [`ESTIMATOR_CELLS`] cells and looks the churn rate of every adjacent
//! visit pair up in a step table built once per search, so it costs
//! O(cells · |S| log |S|) and the practical search, one estimate per
//! *distinct* member location, O(cells · |S|² log |S|) — the paper's
//! O(|S|²) up to the sort. Until ISSUE 14 the churn rate was re-derived
//! with a loop over all traces (one division each) for every visit pair,
//! which made the search cells · |S|³: at |S| = 64 one
//! `best_start_practical` call took 25.7 ms against 3.8 ms now
//! (`best_start_practical_one_group_64` in
//! `crates/bench/benches/uncovered.rs`; DESIGN.md §9d).

use serde::{Deserialize, Serialize};

/// Number of grid cells the estimator uses across the candidate's range.
pub const ESTIMATOR_CELLS: usize = 64;

/// A scan's trajectory in the shared offset coordinate: it is at `pos0`
/// now (time 0), moves at `speed` pages/second, and stops at `end_pos`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Position now.
    pub pos0: f64,
    /// Speed in pages per second (> 0 for a moving scan).
    pub speed: f64,
    /// Position at which the scan ends.
    pub end_pos: f64,
}

impl Trace {
    /// Construct a trace.
    pub fn new(pos0: f64, speed: f64, end_pos: f64) -> Self {
        Trace {
            pos0,
            speed,
            end_pos,
        }
    }

    /// Time (relative to now) at which the trace crosses `x`, if it does.
    /// Negative times mean the scan passed `x` in the recent past (it is
    /// ongoing, so its history is part of the pool state).
    fn crossing(&self, x: f64) -> Option<f64> {
        if self.speed <= 0.0 || x > self.end_pos {
            return None;
        }
        Some((x - self.pos0) / self.speed)
    }

    /// Time at which the scan finishes.
    fn end_time(&self) -> f64 {
        if self.speed <= 0.0 {
            0.0
        } else {
            ((self.end_pos - self.pos0) / self.speed).max(0.0)
        }
    }
}

/// Result of a sharing-potential estimation for one candidate start.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadsEstimate {
    /// Estimated physical page reads within the candidate's range, with
    /// sharing (the paper's `calculateReads` output).
    pub reads: f64,
    /// Reads if no sharing happened at all (every visit pays).
    pub baseline: f64,
    /// Pages in the candidate's evaluated range.
    pub span: f64,
}

impl ReadsEstimate {
    /// Pages saved per page of range — used to compare candidates whose
    /// evaluated spans differ (the paper compares "best overall sharing
    /// potential among all groups"; normalizing per page keeps short
    /// conservative spans from looking artificially cheap).
    pub fn savings_per_page(&self) -> f64 {
        if self.span <= 0.0 {
            0.0
        } else {
            (self.baseline - self.reads) / self.span
        }
    }
}

/// Figure 10's `calculateReads`: estimate the physical reads in the
/// candidate's range `[cand.pos0, cand.end_pos]`, given the ongoing
/// `traces` and a pool of `pool_pages`.
///
/// ```
/// use scanshare::placement::{calculate_reads, Trace};
///
/// // Riding an identical-speed scan halves the reads.
/// let member = Trace::new(0.0, 100.0, 1000.0);
/// let est = calculate_reads(&[member], Trace::new(0.0, 100.0, 1000.0), 64.0);
/// assert!(est.reads < est.baseline);
/// assert!(est.savings_per_page() > 0.9);
/// ```
pub fn calculate_reads(traces: &[Trace], cand: Trace, pool_pages: f64) -> ReadsEstimate {
    Estimator::new(traces).reads(cand, pool_pages)
}

/// The ongoing traces' aggregate churn rate as a step function of time:
/// every trace contributes its speed until it ends (ongoing traces have
/// been running since before now, so they are active for all
/// `t <= end_time`), hence the rate only changes at the ≤ |S| distinct
/// end times. Built once per placement search and shared by all of its
/// estimates.
struct ChurnSteps {
    /// The distinct trace end times, ascending (never NaN: `end_time`
    /// clamps through `f64::max`).
    ends: Vec<f64>,
    /// `rates[j]` is the rate at any `t` with `ends[j-1] < t <= ends[j]`;
    /// the last entry (after every trace has ended) is 0.
    rates: Vec<f64>,
}

impl ChurnSteps {
    fn new(traces: &[Trace]) -> Self {
        let end_times: Vec<f64> = traces.iter().map(Trace::end_time).collect();
        let mut ends = end_times.clone();
        ends.sort_unstable_by(f64::total_cmp);
        ends.dedup();
        // Each step sums its active traces in slice order, not as a
        // running prefix over the sorted ends: f64 addition is not
        // associative, and the estimate is pinned bit for bit to the
        // left-to-right sum (see the oracle test).
        let mut rates: Vec<f64> = ends
            .iter()
            .map(|&end| {
                let mut rate = 0.0;
                for (tr, &e) in traces.iter().zip(&end_times) {
                    if e >= end {
                        rate += tr.speed;
                    }
                }
                rate
            })
            .collect();
        rates.push(0.0);
        ChurnSteps { ends, rates }
    }

    /// Summed speed of the traces still running at time `t`. A NaN `t`
    /// (the midpoint of visits at -inf and +inf) is before no end time
    /// and gets rate 0.
    fn at(&self, t: f64) -> f64 {
        self.rates[self.ends.partition_point(|&end| t > end || t.is_nan())]
    }
}

/// [`calculate_reads`] for many candidates against one set of traces:
/// the churn table is built once, and `visits` is scratch space reused
/// across cells and candidates.
struct Estimator<'a> {
    traces: &'a [Trace],
    churn: ChurnSteps,
    visits: Vec<f64>,
}

impl<'a> Estimator<'a> {
    fn new(traces: &'a [Trace]) -> Self {
        Estimator {
            traces,
            churn: ChurnSteps::new(traces),
            visits: Vec::with_capacity(traces.len() + 1),
        }
    }

    fn reads(&mut self, cand: Trace, pool_pages: f64) -> ReadsEstimate {
        let Estimator {
            traces,
            churn,
            visits,
        } = self;
        let span = cand.end_pos - cand.pos0;
        if span <= 0.0 {
            return ReadsEstimate {
                reads: 0.0,
                baseline: 0.0,
                span: 0.0,
            };
        }
        let cells = ESTIMATOR_CELLS;
        let cell_w = span / cells as f64;
        let mut reads = 0.0;
        let mut baseline = 0.0;

        // Active churn rate at time t: the ongoing traces' step function,
        // plus the candidate while it runs, in [0, its end].
        let cand_end_time = cand.end_time();
        let churn_at = |t: f64| -> f64 {
            let mut rate = churn.at(t);
            if (0.0..=cand_end_time).contains(&t) {
                rate += cand.speed;
            }
            rate.max(1e-9)
        };

        for c in 0..cells {
            let x = cand.pos0 + (c as f64 + 0.5) * cell_w;
            visits.clear();
            for tr in traces.iter() {
                if let Some(t) = tr.crossing(x) {
                    visits.push(t);
                }
            }
            if let Some(t) = cand.crossing(x) {
                visits.push(t);
            }
            visits.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());

            // Future visits each pay a read unless sharing merges them.
            baseline += visits.iter().filter(|&&t| t >= 0.0).count() as f64 * cell_w;

            // Cluster consecutive visits: a visit rides the previous one's
            // page if the pool has not cycled in between.
            let mut cell_reads = 0u32;
            let mut cluster_paid = false; // current cluster already paid/free
            let mut prev: Option<f64> = None;
            for &t in visits.iter() {
                let same_cluster = match prev {
                    Some(p) => {
                        let mid = (p + t) / 2.0;
                        (t - p) * churn_at(mid) <= pool_pages
                    }
                    None => false,
                };
                if !same_cluster {
                    cluster_paid = false;
                }
                if !cluster_paid {
                    if t < 0.0 {
                        // Read already happened in the past: free for the
                        // cluster, costs nothing now.
                        cluster_paid = true;
                    } else {
                        cell_reads += 1;
                        cluster_paid = true;
                    }
                }
                prev = Some(t);
            }
            reads += cell_reads as f64 * cell_w;
        }
        ReadsEstimate {
            reads,
            baseline,
            span,
        }
    }
}

/// A candidate start location with its estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementCandidate {
    /// Offset at which the new scan would start.
    pub start: f64,
    /// Index of the ongoing scan whose location this is (practical
    /// algorithm only; `usize::MAX` for synthetic optimal candidates).
    pub member: usize,
    /// The reads estimate for this start.
    pub estimate: ReadsEstimate,
}

/// The conservative end position of §6.3: the new scan's end key cannot
/// be located in offset space, so it is clamped to the smallest end
/// position of the ongoing scans that is still ahead of the start (and
/// never beyond the scan's own estimated length).
pub fn conservative_end(start: f64, est_pages: f64, members: &[Trace]) -> f64 {
    let own_end = start + est_pages;
    members
        .iter()
        .map(|m| m.end_pos)
        .filter(|&e| e > start)
        .fold(own_end, f64::min)
}

/// §6.3's practical placement: evaluate starting the new scan at each
/// ongoing scan's current location and return the candidate with the
/// highest per-page savings, if any candidate saves anything at all.
///
/// `members` are the ongoing scans of one anchor group, in the group's
/// offset coordinate. `cand_speed`/`cand_pages` are the new scan's
/// estimates. Cost: one estimate per distinct member location —
/// O(cells · |S|² log |S|), see the module docs.
pub fn best_start_practical(
    members: &[Trace],
    cand_speed: f64,
    cand_pages: f64,
    pool_pages: f64,
) -> Option<PlacementCandidate> {
    let mut estimator = Estimator::new(members);
    let mut best: Option<PlacementCandidate> = None;
    for (i, m) in members.iter().enumerate() {
        let start = m.pos0;
        // The estimate is a pure function of `start`, and only a strictly
        // better candidate replaces `best`: a member on the same page as
        // an earlier one (grouped scans usually are) can never win.
        if members[..i]
            .iter()
            .any(|p| p.pos0.to_bits() == start.to_bits())
        {
            continue;
        }
        let end = conservative_end(start, cand_pages, members);
        let cand = Trace::new(start, cand_speed, end);
        let estimate = estimator.reads(cand, pool_pages);
        let c = PlacementCandidate {
            start,
            member: i,
            estimate,
        };
        if best
            .map(|b| c.estimate.savings_per_page() > b.estimate.savings_per_page())
            .unwrap_or(true)
        {
            best = Some(c);
        }
    }
    best.filter(|b| b.estimate.savings_per_page() > 0.0)
}

/// §6.2's optimal placement over "interesting locations": for every
/// ongoing scan and every event time (now, plus each scan's end time),
/// consider starts where the candidate's trace enters, centers on, or
/// leaves that scan's envelope. O(|S|²) candidates, each evaluated with
/// the O(|S| log |S|)-per-cell estimator — the paper's O(|S|³) bound up
/// to the sort.
///
/// `range` is the feasible start interval (the new scan's own range in
/// offset coordinates). Returns the candidate with minimal estimated
/// reads; unlike the practical variant the scan length is not clamped
/// conservatively, because in this variant the full linear geometry is
/// assumed known.
pub fn best_start_optimal(
    members: &[Trace],
    cand_speed: f64,
    cand_pages: f64,
    pool_pages: f64,
    range: (f64, f64),
) -> Option<PlacementCandidate> {
    if members.is_empty() {
        return None;
    }
    let mut events: Vec<f64> = vec![0.0];
    events.extend(members.iter().map(|m| m.end_time()));
    events.retain(|&t| t.is_finite() && t >= 0.0);

    let mut starts: Vec<f64> = Vec::new();
    for m in members {
        for &t in &events {
            let pos = m.pos0 + m.speed * t;
            if pos > m.end_pos + 1e-9 {
                continue;
            }
            let n_active = 1 + members.iter().filter(|o| t <= o.end_time()).count();
            let w = pool_pages / n_active as f64;
            for delta in [-w, 0.0, w] {
                let start = pos + delta - cand_speed * t;
                if start >= range.0 && start <= range.1 {
                    starts.push(start);
                }
            }
        }
    }
    starts.push(range.0); // starting at the own start key is always legal
    starts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    starts.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

    let mut estimator = Estimator::new(members);
    let mut best: Option<PlacementCandidate> = None;
    for start in starts {
        let end = (start + cand_pages).min(range.1 + cand_pages);
        let cand = Trace::new(start, cand_speed, end);
        let estimate = estimator.reads(cand, pool_pages);
        let c = PlacementCandidate {
            start,
            member: usize::MAX,
            estimate,
        };
        if best
            .map(|b| c.estimate.reads < b.estimate.reads)
            .unwrap_or(true)
        {
            best = Some(c);
        }
    }
    best
}

/// The accounting step of Figures 8 and 9: total reads given, per key
/// range, its size in pages and how many times each of its pages is read.
/// This is line 10 of Figure 10 — `reads := reads + reads(r)*pages(r)` —
/// extracted so the paper's worked numbers are executable.
pub fn reads_for_ranges(ranges: &[(u64, u64)]) -> u64 {
    ranges.iter().map(|&(pages, reads)| pages * reads).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 8 walk-through: starting new scan E at the
    /// beginning of its range yields ranges of 15, 30, 15, 20, 10 pages
    /// read 3, 1, 2, 3, 3 times respectively = 195 reads, against a
    /// no-sharing worst case of 240 — a 19 % reduction.
    #[test]
    fn figure8_worked_example() {
        let with_sharing = reads_for_ranges(&[(15, 3), (30, 1), (15, 2), (20, 3), (10, 3)]);
        assert_eq!(with_sharing, 195);
        let worst = reads_for_ranges(&[(15, 3), (30, 2), (30, 3), (5, 3), (10, 3)]);
        assert_eq!(worst, 240);
        let reduction = 1.0 - with_sharing as f64 / worst as f64;
        assert!((reduction - 0.1875).abs() < 1e-9); // "19%"
    }

    /// Figure 9: starting E near scan A instead gives ranges 15, 20, 40,
    /// 15 pages each read twice = 180 reads — a 25 % reduction, so E
    /// should be started near A.
    #[test]
    fn figure9_worked_example() {
        let near_a = reads_for_ranges(&[(15, 2), (20, 2), (40, 2), (15, 2)]);
        assert_eq!(near_a, 180);
        let worst = 240;
        let reduction = 1.0 - near_a as f64 / worst as f64;
        assert!((reduction - 0.25).abs() < 1e-9);
        assert!(near_a < 195, "starting near A beats starting at the front");
    }

    #[test]
    fn lone_candidate_reads_every_page_once() {
        let cand = Trace::new(0.0, 100.0, 1000.0);
        let est = calculate_reads(&[], cand, 50.0);
        assert!((est.reads - 1000.0).abs() < 1.0);
        assert!((est.baseline - 1000.0).abs() < 1.0);
        assert_eq!(est.savings_per_page(), 0.0);
    }

    #[test]
    fn perfectly_aligned_scans_share_every_page() {
        let member = Trace::new(0.0, 100.0, 1000.0);
        let cand = Trace::new(0.0, 100.0, 1000.0);
        let est = calculate_reads(&[member], cand, 50.0);
        // Two scans, one read per page.
        assert!((est.reads - 1000.0).abs() < 1.0);
        assert!((est.baseline - 2000.0).abs() < 1.0);
        assert!((est.savings_per_page() - 1.0).abs() < 0.01);
    }

    #[test]
    fn distant_scans_with_a_small_pool_do_not_share() {
        // Member is 5000 pages ahead; pool of 50 pages cycles long before
        // the candidate arrives anywhere the member has been.
        let member = Trace::new(5000.0, 100.0, 10000.0);
        let cand = Trace::new(0.0, 100.0, 1000.0);
        let est = calculate_reads(&[member], cand, 50.0);
        assert!((est.reads - est.baseline).abs() < 1.0);
    }

    #[test]
    fn recently_passed_pages_are_free() {
        // The member just passed the candidate's whole range (it is at
        // 100 now, moving on). With a pool big enough to hold the range,
        // the candidate reads nothing.
        let member = Trace::new(100.0, 100.0, 1000.0);
        let cand = Trace::new(0.0, 100.0, 100.0);
        let est = calculate_reads(&[member], cand, 10_000.0);
        assert!(est.reads < 5.0, "reads {} should be ~0", est.reads);
    }

    #[test]
    fn practical_prefers_the_similar_speed_scan() {
        // Figure 7's moral: joining a fast scan only shares briefly
        // before drift ends it; a similar-speed scan shares all the way.
        let a = Trace::new(0.0, 300.0, 3000.0); // much faster, drifts away
        let c = Trace::new(500.0, 100.0, 2000.0); // same speed as candidate
        let best = best_start_practical(&[a, c], 100.0, 1500.0, 64.0).unwrap();
        assert_eq!(best.member, 1, "should join the similar-speed scan");
        assert!(best.estimate.savings_per_page() > 0.5);
    }

    #[test]
    fn practical_returns_none_when_nothing_saves() {
        // A single member that is about to finish: joining it saves
        // nothing measurable.
        let m = Trace::new(999.0, 100.0, 1000.0);
        let best = best_start_practical(&[m], 100.0, 1000.0, 16.0);
        if let Some(b) = best {
            assert!(b.estimate.savings_per_page() > 0.0);
        }
    }

    #[test]
    fn practical_empty_members_is_none() {
        assert!(best_start_practical(&[], 100.0, 100.0, 50.0).is_none());
    }

    #[test]
    fn conservative_end_clamps_to_member_ends() {
        let members = [Trace::new(0.0, 1.0, 500.0), Trace::new(0.0, 1.0, 800.0)];
        assert_eq!(conservative_end(100.0, 1000.0, &members), 500.0);
        // Members ending behind the start do not clamp.
        assert_eq!(conservative_end(600.0, 1000.0, &members), 800.0);
        assert_eq!(conservative_end(900.0, 1000.0, &members), 1900.0);
        // The scan's own length is an upper bound.
        assert_eq!(conservative_end(100.0, 50.0, &members), 150.0);
    }

    #[test]
    fn optimal_is_at_least_as_good_as_practical() {
        let members = [
            Trace::new(50.0, 120.0, 1200.0),
            Trace::new(400.0, 80.0, 1500.0),
            Trace::new(900.0, 200.0, 2500.0),
        ];
        let practical = best_start_practical(&members, 100.0, 1000.0, 100.0);
        let optimal = best_start_optimal(&members, 100.0, 1000.0, 100.0, (0.0, 2000.0)).unwrap();
        if let Some(p) = practical {
            // The optimal search includes every member position (center
            // candidates at t=0), so it can only do better or equal.
            let p_end = p.start + 1000.0;
            let p_est = calculate_reads(&members, Trace::new(p.start, 100.0, p_end), 100.0);
            assert!(optimal.estimate.reads <= p_est.reads + 1.0);
        }
    }

    #[test]
    fn optimal_on_empty_members_is_none() {
        assert!(best_start_optimal(&[], 1.0, 10.0, 10.0, (0.0, 10.0)).is_none());
    }

    #[test]
    fn optimal_respects_the_feasible_range() {
        let members = [Trace::new(-500.0, 100.0, 1000.0)];
        let best = best_start_optimal(&members, 100.0, 500.0, 50.0, (0.0, 400.0)).unwrap();
        assert!(best.start >= 0.0 && best.start <= 400.0);
    }

    #[test]
    fn estimate_of_empty_span_is_zero() {
        let est = calculate_reads(&[], Trace::new(10.0, 1.0, 10.0), 10.0);
        assert_eq!(est.reads, 0.0);
        assert_eq!(est.span, 0.0);
        assert_eq!(est.savings_per_page(), 0.0);
    }

    /// The traces' churn rate at `t` as first written: one pass over all
    /// of them, an end time (a division) each.
    fn naive_churn(traces: &[Trace], t: f64) -> f64 {
        let mut rate = 0.0;
        for tr in traces {
            if t <= tr.end_time() {
                rate += tr.speed;
            }
        }
        rate
    }

    /// The estimator as first written — that pass repeated for every
    /// visit pair — kept as the oracle the step table must match bit for
    /// bit.
    fn naive_reads(traces: &[Trace], cand: Trace, pool_pages: f64) -> ReadsEstimate {
        let span = cand.end_pos - cand.pos0;
        if span <= 0.0 {
            return calculate_reads(&[], cand, pool_pages);
        }
        let cell_w = span / ESTIMATOR_CELLS as f64;
        let churn_at = |t: f64| {
            let mut rate = naive_churn(traces, t);
            if (0.0..=cand.end_time()).contains(&t) {
                rate += cand.speed;
            }
            rate.max(1e-9)
        };
        let (mut reads, mut baseline) = (0.0, 0.0);
        for c in 0..ESTIMATOR_CELLS {
            let x = cand.pos0 + (c as f64 + 0.5) * cell_w;
            let mut visits: Vec<f64> = traces.iter().filter_map(|tr| tr.crossing(x)).collect();
            visits.extend(cand.crossing(x));
            visits.sort_by(|a, b| a.partial_cmp(b).unwrap());
            baseline += visits.iter().filter(|&&t| t >= 0.0).count() as f64 * cell_w;
            let (mut cell_reads, mut paid, mut prev) = (0u32, false, None::<f64>);
            for &t in &visits {
                if !prev.is_some_and(|p| (t - p) * churn_at((p + t) / 2.0) <= pool_pages) {
                    paid = false;
                }
                if !paid && t >= 0.0 {
                    cell_reads += 1;
                }
                paid = true;
                prev = Some(t);
            }
            reads += cell_reads as f64 * cell_w;
        }
        ReadsEstimate {
            reads,
            baseline,
            span,
        }
    }

    /// §6.3 as first written: one estimate per member, duplicates and all.
    fn naive_best(
        members: &[Trace],
        speed: f64,
        pages: f64,
        pool: f64,
    ) -> Option<(usize, ReadsEstimate)> {
        let mut best: Option<(usize, ReadsEstimate)> = None;
        for (i, m) in members.iter().enumerate() {
            let end = conservative_end(m.pos0, pages, members);
            let est = naive_reads(members, Trace::new(m.pos0, speed, end), pool);
            if best.is_none_or(|(_, b)| est.savings_per_page() > b.savings_per_page()) {
                best = Some((i, est));
            }
        }
        best.filter(|(_, b)| b.savings_per_page() > 0.0)
    }

    fn bits(e: ReadsEstimate) -> [u64; 3] {
        [e.reads.to_bits(), e.baseline.to_bits(), e.span.to_bits()]
    }

    /// 2 500 seeded inputs built from small palettes, so that duplicate
    /// starts, duplicate end times, stopped and backwards traces, and
    /// crossing times of ±inf (a subnormal speed; their midpoint is NaN)
    /// all occur many times over.
    #[test]
    fn step_table_matches_the_naive_estimator_bit_for_bit() {
        use scanshare_prng::Rng;
        // 0.1, 33.3 and 1e17 make the order of summation visible.
        let speeds = [
            0.0,
            -5.0,
            f64::from_bits(1),
            0.1,
            33.3,
            100.0,
            100.0,
            250.0,
            1e17,
            -1e17,
            f64::INFINITY,
        ];
        let lengths = [0.0, 64.0, 500.0, 500.0, 2000.0, f64::INFINITY];
        let pools = [0.0, 16.0, 80.0, 500.0, 1e9, f64::INFINITY];
        let pages = [0.0, 16.0, 1000.0, 2000.0, 1e18];
        let mut rng = Rng::seed_from_u64(14);
        let (mut joined, mut refused) = (0, 0);
        for case in 0..2500 {
            let n = if case % 100 == 0 {
                40
            } else {
                rng.bounded_u64(13) as usize
            };
            let members: Vec<Trace> = (0..n)
                .map(|_| {
                    let pos = rng.bounded_u64(24) as f64 * 16.0 - 64.0;
                    Trace::new(
                        pos,
                        *rng.choose(&speeds).unwrap(),
                        pos + *rng.choose(&lengths).unwrap(),
                    )
                })
                .collect();
            let speed = *rng.choose(&speeds).unwrap();
            let pages = *rng.choose(&pages).unwrap();
            let pool = *rng.choose(&pools).unwrap();

            let got = best_start_practical(&members, speed, pages, pool);
            let want = naive_best(&members, speed, pages, pool);
            assert_eq!(
                got.map(|c| (c.member, c.start.to_bits(), bits(c.estimate))),
                want.map(|(i, e)| (i, members[i].pos0.to_bits(), bits(e))),
                "case {case}: {members:?} speed {speed} pages {pages} pool {pool}"
            );
            if got.is_some() {
                joined += 1;
            } else {
                refused += 1;
            }

            // The step table itself, at and around every end time.
            let churn = ChurnSteps::new(&members);
            let mut times = vec![f64::NAN, f64::NEG_INFINITY, -1.0, 0.0];
            for m in &members {
                let e = m.end_time();
                times.extend([e, e * 0.5, e + 1.0, e * 2.0]);
            }
            for t in times {
                let want = naive_churn(&members, t);
                assert_eq!(churn.at(t).to_bits(), want.to_bits(), "case {case}: t {t}");
            }

            let cand = Trace::new(
                rng.bounded_u64(24) as f64 * 16.0 - 64.0,
                speed,
                rng.bounded_u64(40) as f64 * 16.0,
            );
            assert_eq!(
                bits(calculate_reads(&members, cand, pool)),
                bits(naive_reads(&members, cand, pool)),
                "case {case}: {members:?} cand {cand:?} pool {pool}"
            );
        }
        assert!(
            joined > 100 && refused > 100,
            "{joined} joined, {refused} refused"
        );
    }
}
