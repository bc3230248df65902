//! Adaptive throttling of group leaders (§7.2).
//!
//! "Slowing down a scan operation in order to improve query response time
//! may seem counter-intuitive at first" — but an unthrottled leader runs
//! away from its group, every page it reads has to be physically re-read
//! by the followers, and the doubled I/O slows the leader itself down.
//! When a leader's distance to its trailer exceeds the threshold
//! (typically two prefetch extents), a wait is injected into the leader's
//! `update_location` call, sized so the trailer catches back up.
//!
//! Fairness: a scan that has already been delayed for more than
//! `fairness_cap` (80 %) of its estimated total scan time is never
//! throttled again — no single query pays unboundedly for the others.

use scanshare_storage::SimDuration;

use crate::config::{SharingConfig, MAX_WAIT};
use crate::scan::{ScanDesc, ScanState};

/// Total slowdown a scan may be made to absorb under the fairness cap:
/// `fairness_cap × estimated scan time`, scaled by the owning query's
/// priority when dynamic fairness is on. This is the denominator of the
/// "slowdown vs the 80 % cap" gauge the observability layer exports.
pub fn slowdown_budget(cfg: &SharingConfig, desc: &ScanDesc) -> SimDuration {
    let cap = if cfg.dynamic_fairness {
        (cfg.fairness_cap * desc.priority.fairness_factor()).min(1.0)
    } else {
        cfg.fairness_cap
    };
    SimDuration::from_micros((cap * desc.est_time.as_micros() as f64) as u64)
}

/// The wait needed for the trailer to close the excess gap, given the
/// trailer keeps moving at `trailer_speed` pages/second while the leader
/// stands still. Clamped to [`MAX_WAIT`].
pub(crate) fn raw_wait(
    cfg: &SharingConfig,
    distance_pages: u64,
    trailer_speed: f64,
) -> SimDuration {
    let threshold = cfg.throttle_threshold_pages();
    if distance_pages <= threshold {
        return SimDuration::ZERO;
    }
    let excess = (distance_pages - threshold) as f64;
    if trailer_speed <= 0.0 {
        return MAX_WAIT;
    }
    let wait = SimDuration::from_secs_f64(excess / trailer_speed);
    wait.min(MAX_WAIT)
}

/// Apply the fairness cap of §7.2 and account the wait against the scan.
/// Returns the wait actually granted (zero once the scan is exempt).
pub(crate) fn throttle(
    cfg: &SharingConfig,
    scan: &mut ScanState,
    distance_pages: u64,
    trailer_speed: f64,
) -> SimDuration {
    if scan.throttle_exempt {
        return SimDuration::ZERO;
    }
    let wait = raw_wait(cfg, distance_pages, trailer_speed);
    if wait == SimDuration::ZERO {
        return SimDuration::ZERO;
    }
    // Dynamic fairness (the paper's future-work extension): the budget
    // scales the cap by the owning query's priority class.
    let budget = slowdown_budget(cfg, &scan.desc).saturating_sub(scan.accumulated_slowdown);
    if budget == SimDuration::ZERO {
        // "If a SISCAN was slowed down for more than 80% of its estimated
        // total scan time, it is not slowed down anymore until it
        // finishes."
        scan.throttle_exempt = true;
        return SimDuration::ZERO;
    }
    let granted = wait.min(budget);
    scan.accumulated_slowdown += granted;
    granted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::AnchorId;
    use crate::scan::{Location, ObjectId, ScanDesc, ScanId, ScanKind};
    use scanshare_storage::SimTime;

    fn cfg() -> SharingConfig {
        SharingConfig::new(1000) // threshold = 32 pages, MAX_WAIT 500ms
    }

    fn scan(est_secs: u64) -> ScanState {
        let desc = ScanDesc {
            kind: ScanKind::Table,
            object: ObjectId(0),
            start_key: 0,
            end_key: 1000,
            est_pages: 1000,
            est_time: SimDuration::from_secs(est_secs),
            priority: Default::default(),
        };
        ScanState::new(
            ScanId(0),
            desc,
            Location::new(0, 0),
            AnchorId(0),
            0,
            SimTime::ZERO,
        )
    }

    #[test]
    fn no_wait_within_threshold() {
        assert_eq!(raw_wait(&cfg(), 32, 100.0), SimDuration::ZERO);
        assert_eq!(raw_wait(&cfg(), 10, 100.0), SimDuration::ZERO);
    }

    #[test]
    fn wait_closes_the_excess_gap_at_trailer_speed() {
        // 132 pages apart, threshold 32 -> 100 excess pages; the trailer
        // moves 100 pages/s -> wait 1s, clamped to MAX_WAIT, 500ms.
        assert_eq!(raw_wait(&cfg(), 132, 100.0), SimDuration::from_millis(500));
        // 52 pages apart -> 20 excess at 100 pages/s -> 200ms.
        assert_eq!(raw_wait(&cfg(), 52, 100.0), SimDuration::from_millis(200));
    }

    #[test]
    fn stalled_trailer_waits_the_longest_allowed() {
        assert_eq!(raw_wait(&cfg(), 100, 0.0), MAX_WAIT);
    }

    #[test]
    fn throttle_accumulates_slowdown() {
        let c = cfg();
        let mut s = scan(10);
        let w = throttle(&c, &mut s, 52, 100.0);
        assert_eq!(w, SimDuration::from_millis(200));
        assert_eq!(s.accumulated_slowdown, SimDuration::from_millis(200));
        assert!(!s.throttle_exempt);
    }

    #[test]
    fn fairness_cap_limits_total_slowdown() {
        let c = cfg();
        // est_time 1s -> budget 0.8s. Each throttle grants up to 500ms.
        let mut s = scan(1);
        let w1 = throttle(&c, &mut s, 1000, 10.0); // raw wait huge -> 500ms
        assert_eq!(w1, SimDuration::from_millis(500));
        let w2 = throttle(&c, &mut s, 1000, 10.0); // only 300ms budget left
        assert_eq!(w2, SimDuration::from_millis(300));
        assert_eq!(s.accumulated_slowdown, SimDuration::from_millis(800));
        // Budget exhausted: the next call marks the scan exempt forever.
        let w3 = throttle(&c, &mut s, 1000, 10.0);
        assert_eq!(w3, SimDuration::ZERO);
        assert!(s.throttle_exempt);
        let w4 = throttle(&c, &mut s, 1_000_000, 10.0);
        assert_eq!(w4, SimDuration::ZERO);
    }

    #[test]
    fn dynamic_fairness_scales_the_cap_by_priority() {
        use crate::scan::QueryPriority;
        let c = SharingConfig {
            dynamic_fairness: true,
            ..cfg()
        };
        // est_time 1s; default cap 0.8. High-priority: 0.4s budget;
        // low-priority: capped at 1.0 -> 1.0s budget.
        let drain = |prio: QueryPriority| {
            let mut s = scan(1);
            s.desc.priority = prio;
            let mut total = SimDuration::ZERO;
            for _ in 0..10 {
                total += throttle(&c, &mut s, 1_000_000, 10.0);
            }
            total
        };
        assert_eq!(drain(QueryPriority::High), SimDuration::from_millis(400));
        assert_eq!(drain(QueryPriority::Normal), SimDuration::from_millis(800));
        assert_eq!(drain(QueryPriority::Low), SimDuration::from_millis(1000));
    }

    #[test]
    fn dynamic_fairness_off_ignores_priority() {
        use crate::scan::QueryPriority;
        let c = cfg();
        let mut s = scan(1);
        s.desc.priority = QueryPriority::High;
        let mut total = SimDuration::ZERO;
        for _ in 0..10 {
            total += throttle(&c, &mut s, 1_000_000, 10.0);
        }
        assert_eq!(total, SimDuration::from_millis(800));
    }

    #[test]
    fn no_accounting_when_within_threshold() {
        let c = cfg();
        let mut s = scan(10);
        assert_eq!(throttle(&c, &mut s, 5, 100.0), SimDuration::ZERO);
        assert_eq!(s.accumulated_slowdown, SimDuration::ZERO);
        assert!(!s.throttle_exempt);
    }
}
