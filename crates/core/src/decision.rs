//! Decision provenance: a structured event log of *why* the manager did
//! what it did.
//!
//! The metrics layer (`crate::obs`, `ScanSharingManager::probe`) reports
//! *what* happened — hit ratios, group extents, slowdown fractions. This
//! module records the decisions themselves, each with the full input
//! context the policy saw and the outcome it chose:
//!
//! * [`DecisionEvent::GroupStart`] / [`DecisionEvent::GroupJoin`] — the
//!   candidate start locations placement scored, and the saving threshold
//!   that selected (or rejected) them,
//! * [`DecisionEvent::Throttle`] / [`DecisionEvent::Unthrottle`] — the
//!   leader–trailer distance against the threshold, the injected wait, and
//!   the accumulated slowdown against the fairness-cap budget,
//! * [`DecisionEvent::SlowdownCapHit`] — the moment a scan exhausts its
//!   80 % budget and becomes permanently throttle-exempt,
//! * [`DecisionEvent::RoleChange`] — leader/trailer/middle/singleton
//!   reclassifications as groups form and drift,
//! * [`DecisionEvent::PageReprioritize`] — the release-path priority the
//!   manager picked for a scan's pages changing with its role,
//! * [`DecisionEvent::ScanStarted`] / [`DecisionEvent::ScanWrapped`] /
//!   [`DecisionEvent::ScanEnded`] — the scan's lifecycle: which query and
//!   stream it runs for, its wrap to the range start, its normal end (a
//!   fault ends it with [`DecisionEvent::ScanEvicted`] instead).
//!
//! Events flow into the manager's [`DecisionLog`]: a bounded ring with a
//! drop-oldest cap, saved as a run report's `decisions` — the run's one
//! event log. In a profiled run the manager also writes the lifecycle records
//! [`manager_instant`] names as instants on the span profiler's manager
//! track: that track is a view of the log, not a second record.
//! [`lifecycles`] reads each scan's start, placement, wraps, throttle
//! waits and end back off it; [`render_lifecycles`] is `scanshare trace`.

use scanshare_storage::{PagePriority, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write;

use crate::anchor::AnchorId;
use crate::config::Placement;
use crate::grouping::Role;
use crate::scan::{Location, ObjectId, ScanId};

/// One start location the placement policy considered for a new scan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementCandidate {
    /// The ongoing scan whose position defines the candidate (`None` for
    /// computed optimal locations and finished-scan leftovers).
    pub scan: Option<ScanId>,
    /// The candidate start location.
    pub location: Location,
    /// Estimated absolute pages saved by starting here instead of fresh.
    pub saving_pages: f64,
    /// Savings per page scanned — the score candidates compete on.
    pub score: f64,
    /// The candidate member's speed (pages/s) at decision time.
    pub speed: f64,
}

/// One policy decision, with the inputs that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DecisionEvent {
    /// A related-work placement (`Attach` or `Elevator`) shaped this
    /// run; emitted once, when the first scan registers. (The paper's
    /// placements stay silent so their reports match
    /// pre-policy-framework builds byte for byte.)
    PolicyChosen {
        /// The first scan of the run (the event anchor).
        scan: ScanId,
        /// The placement every subsequent decision flows through.
        policy: Placement,
    },
    /// Placement started the scan at its own start key — either no
    /// candidate existed or none cleared the saving threshold.
    GroupStart {
        /// The new scan.
        scan: ScanId,
        /// The scanned object.
        object: ObjectId,
        /// Every candidate considered (empty when placement is disabled
        /// or no same-object scans were ongoing).
        candidates: Vec<PlacementCandidate>,
        /// Minimum absolute saving (pages) a candidate needed to win.
        threshold_pages: f64,
    },
    /// Placement joined the scan to an existing page stream.
    GroupJoin {
        /// The new scan.
        scan: ScanId,
        /// The scanned object.
        object: ObjectId,
        /// The ongoing scan joined (`None`: finished-scan leftovers or a
        /// computed optimal location).
        joined: Option<ScanId>,
        /// Where the scan starts.
        location: Location,
        /// Pages to back up before `location` (finished-scan joins).
        back_up_pages: u64,
        /// Every candidate considered, including the winner.
        candidates: Vec<PlacementCandidate>,
        /// Minimum absolute saving (pages) the winner had to clear.
        threshold_pages: f64,
    },
    /// A wait was injected into a drifting group leader.
    Throttle {
        /// The throttled leader.
        scan: ScanId,
        /// The leader's group (anchor id).
        group: AnchorId,
        /// Leader–trailer distance in pages when the decision fired.
        distance_pages: u64,
        /// The distance threshold (two prefetch extents by default).
        threshold_pages: u64,
        /// The wait actually granted (fairness-capped).
        wait: SimDuration,
        /// Total slowdown absorbed by the scan after this wait.
        accumulated_slowdown: SimDuration,
        /// The scan's fairness-cap budget (`fairness_cap × est_time`).
        slowdown_budget: SimDuration,
        /// The configured fairness cap (0.8 = "80 % of estimated time").
        fairness_cap: f64,
        /// The trailer the leader is waiting for.
        trailer: ScanId,
        /// The trailer's speed (pages/s) the wait was sized from.
        trailer_speed: f64,
    },
    /// A previously throttled leader fell back inside the distance
    /// threshold (or stopped being a leader) and is no longer slowed.
    Unthrottle {
        /// The scan no longer being throttled.
        scan: ScanId,
        /// Its group (anchor id).
        group: AnchorId,
        /// Leader–trailer distance in pages at the decision.
        distance_pages: u64,
        /// The distance threshold it fell back inside.
        threshold_pages: u64,
    },
    /// The scan exhausted its fairness-cap budget: it is never throttled
    /// again until it finishes.
    SlowdownCapHit {
        /// The newly exempt scan.
        scan: ScanId,
        /// Slowdown absorbed so far (≥ the budget).
        accumulated_slowdown: SimDuration,
        /// The exhausted budget.
        slowdown_budget: SimDuration,
        /// The configured fairness cap.
        fairness_cap: f64,
    },
    /// The scan's role in its group changed.
    RoleChange {
        /// The reclassified scan.
        scan: ScanId,
        /// Its group (anchor id) after the change.
        group: AnchorId,
        /// Previous role.
        from: Role,
        /// New role.
        to: Role,
        /// The group's leader–trailer extent in pages.
        group_extent: u64,
        /// Number of scans in the group.
        members: usize,
    },
    /// The release priority the manager attaches to the scan's pages
    /// changed (pages enter the pool at `Normal`; leaders mark theirs
    /// `High`, trailers `Low`).
    PageReprioritize {
        /// The scan whose pages are re-prioritized.
        scan: ScanId,
        /// The scan's role driving the choice.
        role: Role,
        /// Priority previously attached on release.
        from: PagePriority,
        /// Priority attached from now on.
        to: PagePriority,
    },
    /// A fault plan fired in the scan's I/O path (reported by the engine
    /// after the fact; transient faults that a retry absorbed still show
    /// up here, which is how `explain` narrates retries).
    FaultInjected {
        /// The scan whose read was hit.
        scan: ScanId,
        /// The device the fault fired on.
        device: u32,
        /// The physical page address of the faulted request.
        page: u64,
        /// Whether a retry may succeed (`false`: dead device/region).
        transient: bool,
        /// 1-based attempt number the fault hit (attempt 2+ means the
        /// engine was already retrying).
        attempt: u32,
    },
    /// A faulted scan was removed from sharing: its group re-forms
    /// without it and any throttling it justified is lifted.
    ScanEvicted {
        /// The evicted scan.
        scan: ScanId,
        /// The group it was evicted from.
        group: AnchorId,
        /// The scanned object.
        object: ObjectId,
        /// Why the manager gave up on the scan.
        reason: String,
        /// Scans remaining in the group after the eviction.
        remaining: usize,
    },
    /// The manager acknowledged running degraded: a scan has been lost
    /// to faults and sharing proceeds with the survivors.
    DegradedMode {
        /// The scan whose loss triggered this transition.
        scan: ScanId,
        /// Scans evicted by faults so far this run.
        evicted_total: u64,
        /// Ongoing scans still being shared.
        active: usize,
    },
    /// Push delivery: a new consumer attached to a group driver's shared
    /// page stream. `missed_pages` is the prefix the consumer replays
    /// through its private pull cursor (the catch-up protocol).
    DriverAttach {
        /// The attaching consumer.
        scan: ScanId,
        /// The scan currently owning the group-driver cursor.
        driver: ScanId,
        /// The object whose pages the driver delivers.
        object: ObjectId,
        /// Pages the driver already delivered before this consumer
        /// attached — replayed privately.
        missed_pages: u64,
        /// Consumers attached to the driver after this attach.
        consumers: usize,
    },
    /// Push delivery: the group-driver role moved to a surviving
    /// consumer because the previous driver detached mid-lap (fault
    /// eviction — a finished driver retires its lap instead).
    DriverHandoff {
        /// The consumer now driving the cursor.
        scan: ScanId,
        /// The consumer that was driving.
        from: ScanId,
        /// The object whose pages the driver delivers.
        object: ObjectId,
        /// Pages left to deliver in the current lap.
        remaining_pages: u64,
        /// Consumers still attached (including the new driver).
        consumers: usize,
    },
    /// The engine began executing a registered scan: what placement
    /// does not say — the query it runs for and that query's stream.
    ScanStarted {
        /// The started scan.
        scan: ScanId,
        /// Query name.
        query: String,
        /// Stream index.
        stream: usize,
    },
    /// The scan reached the end of its range and wrapped to its start
    /// (the second phase of a scan placed mid-range).
    ScanWrapped {
        /// The wrapping scan.
        scan: ScanId,
    },
    /// The scan finished its range and left the manager.
    ScanEnded {
        /// The finished scan.
        scan: ScanId,
    },
}

impl DecisionEvent {
    /// The scan the decision is about.
    pub fn scan(&self) -> ScanId {
        match self {
            DecisionEvent::PolicyChosen { scan, .. }
            | DecisionEvent::GroupStart { scan, .. }
            | DecisionEvent::GroupJoin { scan, .. }
            | DecisionEvent::Throttle { scan, .. }
            | DecisionEvent::Unthrottle { scan, .. }
            | DecisionEvent::SlowdownCapHit { scan, .. }
            | DecisionEvent::RoleChange { scan, .. }
            | DecisionEvent::PageReprioritize { scan, .. }
            | DecisionEvent::FaultInjected { scan, .. }
            | DecisionEvent::ScanEvicted { scan, .. }
            | DecisionEvent::DegradedMode { scan, .. }
            | DecisionEvent::DriverAttach { scan, .. }
            | DecisionEvent::DriverHandoff { scan, .. }
            | DecisionEvent::ScanStarted { scan, .. }
            | DecisionEvent::ScanWrapped { scan }
            | DecisionEvent::ScanEnded { scan } => *scan,
        }
    }

    /// The group (anchor) the decision names, when it names one.
    pub fn group(&self) -> Option<AnchorId> {
        match self {
            DecisionEvent::Throttle { group, .. }
            | DecisionEvent::Unthrottle { group, .. }
            | DecisionEvent::RoleChange { group, .. }
            | DecisionEvent::ScanEvicted { group, .. } => Some(*group),
            _ => None,
        }
    }
}

/// A timestamped decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Virtual time of the decision.
    pub at: SimTime,
    /// The decision.
    pub event: DecisionEvent,
}

/// The manager's record of its decisions: a bounded ring that drops the
/// oldest events past its cap, so long runs cannot exhaust memory. The
/// manager owns it; readers get copies of its records.
#[derive(Debug, Clone)]
pub struct DecisionLog {
    records: VecDeque<DecisionRecord>,
    cap: usize,
    dropped: u64,
}

impl DecisionLog {
    /// Create a log retaining at most `cap` decisions.
    pub fn new(cap: usize) -> Self {
        DecisionLog {
            records: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
        }
    }

    /// Record a decision.
    pub fn record(&mut self, at: SimTime, event: DecisionEvent) {
        if self.records.len() >= self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(DecisionRecord { at, event });
    }

    /// Copy of the retained decisions appended after the first `*seen`
    /// the log ever took, oldest first; `*seen` moves past them. A
    /// reader that passes the same counter each time gets every record
    /// once; `since(&mut 0)` is every retained record.
    pub fn since(&self, seen: &mut u64) -> Vec<DecisionRecord> {
        let appended = self.dropped + self.records.len() as u64;
        let skip = seen.saturating_sub(self.dropped) as usize;
        *seen = appended;
        self.records.iter().skip(skip).cloned().collect()
    }

    /// Decisions dropped due to the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Short lowercase name for a role (rendering).
pub fn role_name(r: Role) -> &'static str {
    match r {
        Role::Leader => "leader",
        Role::Trailer => "trailer",
        Role::Middle => "middle",
        Role::Singleton => "singleton",
    }
}

/// Short lowercase name for a page priority (rendering).
pub fn priority_name(p: PagePriority) -> &'static str {
    match p {
        PagePriority::High => "high",
        PagePriority::Normal => "normal",
        PagePriority::Low => "low",
    }
}

/// The span a profiled run's manager track shows for `event`: its name
/// and attributes, for the four lifecycle records the track mirrors
/// (placement, push attach, push handoff, fault eviction); `None` for
/// every other record. Placement instants name the policy of the run's
/// `placement`.
pub fn manager_instant(
    event: &DecisionEvent,
    placement: Placement,
) -> Option<(&'static str, Vec<(&'static str, String)>)> {
    let scan = ("scan", event.scan().0.to_string());
    let placed = |object: &ObjectId, candidates: &[PlacementCandidate], decision| {
        let object = ("object", object.0.to_string());
        let policy = ("policy", placement.policy_name().to_string());
        let candidates = ("candidates", candidates.len().to_string());
        (
            "mgr.place",
            vec![
                scan.clone(),
                object,
                policy,
                candidates,
                ("decision", decision),
            ],
        )
    };
    Some(match event {
        DecisionEvent::GroupStart {
            object, candidates, ..
        } => placed(object, candidates, "from_start".to_string()),
        DecisionEvent::GroupJoin {
            object,
            joined,
            candidates,
            ..
        } => placed(
            object,
            candidates,
            match joined {
                Some(j) => format!("join scan {}", j.0),
                None => "join_location".to_string(),
            },
        ),
        DecisionEvent::DriverAttach {
            driver,
            missed_pages,
            ..
        } => {
            let driver = ("driver", driver.0.to_string());
            (
                "mgr.push_attach",
                vec![scan, driver, ("missed_pages", missed_pages.to_string())],
            )
        }
        DecisionEvent::DriverHandoff {
            from,
            remaining_pages,
            ..
        } => {
            let from = ("from", from.0.to_string());
            let left = ("remaining_pages", remaining_pages.to_string());
            ("mgr.push_handoff", vec![scan, from, left])
        }
        DecisionEvent::ScanEvicted {
            group,
            reason,
            remaining,
            ..
        } => {
            let group = ("group", group.0.to_string());
            let survivors = ("survivors", remaining.to_string());
            (
                "mgr.regroup",
                vec![scan, group, ("reason", reason.clone()), survivors],
            )
        }
        _ => return None,
    })
}

/// One decision as a single human-readable line (no timestamp).
pub fn describe(event: &DecisionEvent) -> String {
    match event {
        DecisionEvent::PolicyChosen { policy, .. } => format!(
            "sharing policy '{}' selected for this run (placement and throttling decisions below follow it)",
            policy.policy_name()
        ),
        DecisionEvent::GroupStart {
            scan,
            candidates,
            threshold_pages,
            ..
        } => {
            if candidates.is_empty() {
                format!("scan {} starts own group (no candidates)", scan.0)
            } else {
                let best = candidates
                    .iter()
                    .map(|c| c.saving_pages)
                    .fold(f64::NEG_INFINITY, f64::max);
                format!(
                    "scan {} starts own group ({} candidate{} below threshold {:.1} pages, best saving {:.1})",
                    scan.0,
                    candidates.len(),
                    if candidates.len() == 1 { "" } else { "s" },
                    threshold_pages,
                    best
                )
            }
        }
        DecisionEvent::GroupJoin {
            scan,
            joined,
            location,
            back_up_pages,
            candidates,
            threshold_pages,
            ..
        } => {
            let target = match joined {
                Some(j) => format!("scan {}", j.0),
                None if *back_up_pages > 0 => {
                    format!("finished scan leftovers (-{back_up_pages} pages)")
                }
                None => "computed location".to_string(),
            };
            let winner = candidates
                .iter()
                .map(|c| c.saving_pages)
                .fold(f64::NEG_INFINITY, f64::max);
            format!(
                "scan {} joins {} at key {} ({} candidate{}, best saving {:.1} >= threshold {:.1} pages)",
                scan.0,
                target,
                location.key,
                candidates.len(),
                if candidates.len() == 1 { "" } else { "s" },
                winner,
                threshold_pages
            )
        }
        DecisionEvent::Throttle {
            scan,
            distance_pages,
            threshold_pages,
            wait,
            accumulated_slowdown,
            slowdown_budget,
            fairness_cap,
            trailer,
            trailer_speed,
            ..
        } => {
            let frac = slowdown_frac(*accumulated_slowdown, *slowdown_budget);
            format!(
                "scan {} throttled {wait}: distance {distance_pages} pages > threshold {threshold_pages} pages, slowdown {:.1}%/{:.0}% of budget {slowdown_budget} (trailer {} at {:.1} pages/s)",
                scan.0,
                frac * 100.0,
                fairness_cap * 100.0,
                trailer.0,
                trailer_speed
            )
        }
        DecisionEvent::Unthrottle {
            scan,
            distance_pages,
            threshold_pages,
            ..
        } => format!(
            "scan {} unthrottled: distance {distance_pages} pages <= threshold {threshold_pages} pages",
            scan.0
        ),
        DecisionEvent::SlowdownCapHit {
            scan,
            accumulated_slowdown,
            slowdown_budget,
            fairness_cap,
        } => format!(
            "scan {} hit the {:.0}% slowdown cap ({accumulated_slowdown} of budget {slowdown_budget}): throttle-exempt until it finishes",
            scan.0,
            fairness_cap * 100.0
        ),
        DecisionEvent::RoleChange {
            scan,
            from,
            to,
            group_extent,
            members,
            ..
        } => format!(
            "scan {} role {} -> {} (group of {members}, extent {group_extent} pages)",
            scan.0,
            role_name(*from),
            role_name(*to)
        ),
        DecisionEvent::PageReprioritize { scan, role, from, to } => format!(
            "scan {} releases pages at {} priority (was {}) as {}",
            scan.0,
            priority_name(*to),
            priority_name(*from),
            role_name(*role)
        ),
        DecisionEvent::FaultInjected {
            scan,
            device,
            page,
            transient,
            attempt,
        } => {
            let kind = if *transient { "transient" } else { "permanent" };
            format!(
                "scan {} hit a {kind} read fault on device {device} page {page} (attempt {attempt})",
                scan.0
            )
        }
        DecisionEvent::ScanEvicted {
            scan,
            reason,
            remaining,
            ..
        } => format!(
            "scan {} evicted from its group ({reason}); {remaining} member{} remain",
            scan.0,
            if *remaining == 1 { "" } else { "s" }
        ),
        DecisionEvent::DegradedMode {
            scan,
            evicted_total,
            active,
        } => format!(
            "degraded mode: scan {} lost to faults ({evicted_total} evicted so far, {active} scan{} still sharing)",
            scan.0,
            if *active == 1 { "" } else { "s" }
        ),
        DecisionEvent::DriverAttach {
            scan,
            driver,
            missed_pages,
            consumers,
            ..
        } => {
            let catchup = if *missed_pages == 0 {
                "nothing to catch up".to_string()
            } else {
                format!("{missed_pages} missed pages replayed via private pull cursor")
            };
            format!(
                "scan {} attached to push driver {} ({consumers} consumer{} riding, {catchup})",
                scan.0,
                driver.0,
                if *consumers == 1 { "" } else { "s" }
            )
        }
        DecisionEvent::DriverHandoff {
            scan,
            from,
            remaining_pages,
            consumers,
            ..
        } => format!(
            "push driver handoff: scan {} takes the cursor from scan {} ({remaining_pages} pages left in the lap, {consumers} consumer{} attached)",
            scan.0,
            from.0,
            if *consumers == 1 { "" } else { "s" }
        ),
        DecisionEvent::ScanStarted {
            scan,
            query,
            stream,
        } => format!("scan {} started for {query} (stream {stream})", scan.0),
        DecisionEvent::ScanWrapped { scan } => {
            format!("scan {} wrapped to the start of its range", scan.0)
        }
        DecisionEvent::ScanEnded { scan } => format!("scan {} ended", scan.0),
    }
}

/// Fraction of the slowdown budget spent, clamped to `[0, 1]`.
pub fn slowdown_frac(spent: SimDuration, budget: SimDuration) -> f64 {
    if budget == SimDuration::ZERO {
        if spent == SimDuration::ZERO {
            0.0
        } else {
            1.0
        }
    } else {
        (spent.as_micros() as f64 / budget.as_micros() as f64).min(1.0)
    }
}

/// One scan's lifecycle, read off a decision log by [`lifecycles`]: what
/// it ran for, how placement started it, and the wraps and throttle waits
/// between its start and its end. A field the log never recorded (a log
/// from before the engine recorded lifecycles, or one whose cap dropped
/// the event) is `None`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lifecycle {
    /// The scan.
    pub scan: ScanId,
    /// Query name, from [`DecisionEvent::ScanStarted`].
    pub query: Option<String>,
    /// Stream index, from [`DecisionEvent::ScanStarted`].
    pub stream: Option<usize>,
    /// How the scan started: `fresh` after a [`DecisionEvent::GroupStart`],
    /// `join …` after a [`DecisionEvent::GroupJoin`], `push-driver` or
    /// `push-rider(…)` after a [`DecisionEvent::DriverAttach`], which
    /// follows the placement decision and wins.
    pub placement: Option<String>,
    /// When the scan was placed and started.
    pub start: Option<SimTime>,
    /// When it ended ([`DecisionEvent::ScanEnded`]) or was evicted by a
    /// fault ([`DecisionEvent::ScanEvicted`]).
    pub finish: Option<SimTime>,
    /// Wraps to the range start.
    pub wraps: u64,
    /// Throttle waits injected.
    pub throttles: u64,
    /// Their total.
    pub throttle_wait: SimDuration,
}

impl Lifecycle {
    /// Start-to-finish duration, when the log holds both ends.
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finish?.since(self.start?))
    }
}

/// How the scan an event names started, when the event says: placement's
/// decision, or the push driver it attached to (which follows placement
/// and wins).
fn placement(e: &DecisionEvent) -> Option<String> {
    Some(match e {
        DecisionEvent::GroupStart { .. } => "fresh".to_string(),
        DecisionEvent::GroupJoin {
            joined: Some(j),
            location,
            ..
        } => format!("join scan {} @ key {}", j.0, location.key),
        DecisionEvent::GroupJoin {
            joined: None,
            location,
            back_up_pages,
            ..
        } => format!(
            "join finished @ key {} (-{back_up_pages} pages)",
            location.key
        ),
        DecisionEvent::DriverAttach { scan, driver, .. } if scan == driver => {
            "push-driver".to_string()
        }
        DecisionEvent::DriverAttach {
            driver,
            missed_pages,
            ..
        } => format!("push-rider(driver s{}, catch-up {missed_pages}p)", driver.0),
        _ => return None,
    })
}

/// Every scan's lifecycle, in scan-id order: one pass over the log.
pub fn lifecycles(records: &[DecisionRecord]) -> Vec<Lifecycle> {
    let mut by_scan: BTreeMap<ScanId, Lifecycle> = BTreeMap::new();
    for r in records {
        let (e, scan) = (&r.event, r.event.scan());
        let s = by_scan.entry(scan).or_insert_with(|| Lifecycle {
            scan,
            ..Lifecycle::default()
        });
        if let Some(p) = placement(e) {
            s.placement = Some(p);
        }
        match e {
            DecisionEvent::GroupStart { .. } | DecisionEvent::GroupJoin { .. } => {
                s.start.get_or_insert(r.at);
            }
            DecisionEvent::ScanStarted { query, stream, .. } => {
                s.start.get_or_insert(r.at);
                s.query = Some(query.clone());
                s.stream = Some(*stream);
            }
            DecisionEvent::Throttle { wait, .. } => {
                s.throttles += 1;
                s.throttle_wait += *wait;
            }
            DecisionEvent::ScanWrapped { .. } => s.wraps += 1,
            DecisionEvent::ScanEnded { .. } | DecisionEvent::ScanEvicted { .. } => {
                s.finish = Some(r.at)
            }
            _ => {}
        }
    }
    by_scan.into_values().collect()
}

/// The lifecycle view `scanshare trace` prints: one row per scan, then
/// the log's lifecycle events — start, wrap, throttle, finish — one
/// timestamped line each. `-` marks what the log never recorded.
pub fn render_lifecycles(records: &[DecisionRecord]) -> String {
    let spans = lifecycles(records);
    let or_dash = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    let secs = |t: Option<SimTime>| t.map(|t| format!("{:.3}", t.as_micros() as f64 / 1e6));
    let mut out = format!("== scan lifecycles ({}) ==\n", spans.len());
    out += "  scan   query      stream  placement               start(s) finish(s)   \
            elapsed  wraps throttles      wait(s)\n";
    for s in &spans {
        let _ = writeln!(
            out,
            "  {:<6} {:<10} {:<7} {:<22} {:>9} {:>9} {:>9} {:>6} {:>9} {:>12.3}",
            s.scan.0,
            s.query.as_deref().unwrap_or("-"),
            or_dash(s.stream.map(|n| n.to_string())),
            s.placement.as_deref().unwrap_or("-"),
            or_dash(secs(s.start)),
            or_dash(secs(s.finish)),
            or_dash(s.elapsed().map(|d| format!("{:.3}", d.as_secs_f64()))),
            s.wraps,
            s.throttles,
            s.throttle_wait.as_secs_f64(),
        );
    }
    let mut events = String::new();
    let mut n = 0;
    for r in records {
        let what = match &r.event {
            DecisionEvent::ScanStarted {
                scan,
                query,
                stream,
            } => {
                let at = spans.binary_search_by_key(scan, |s| s.scan);
                let placement = at.ok().and_then(|i| spans[i].placement.as_deref());
                let placement = placement.unwrap_or("-");
                format!("start   {query} (stream {stream}, {placement})")
            }
            DecisionEvent::ScanWrapped { .. } => "wrap".to_string(),
            // Only a group's leader is ever throttled.
            DecisionEvent::Throttle { wait, .. } => format!("throttle {wait} (leader)"),
            DecisionEvent::ScanEnded { .. } | DecisionEvent::ScanEvicted { .. } => {
                "finish".to_string()
            }
            _ => continue,
        };
        n += 1;
        let _ = writeln!(events, "{} scan {:>3} {what}", r.at, r.event.scan().0);
    }
    let _ = write!(out, "\n== events ({n}) ==\n{events}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<DecisionEvent> {
        vec![
            DecisionEvent::GroupStart {
                scan: ScanId(0),
                object: ObjectId(3),
                candidates: vec![],
                threshold_pages: 16.0,
            },
            DecisionEvent::GroupJoin {
                scan: ScanId(1),
                object: ObjectId(3),
                joined: Some(ScanId(0)),
                location: Location::new(500, 500),
                back_up_pages: 0,
                candidates: vec![PlacementCandidate {
                    scan: Some(ScanId(0)),
                    location: Location::new(500, 500),
                    saving_pages: 310.0,
                    score: 0.8,
                    speed: 120.0,
                }],
                threshold_pages: 16.0,
            },
            DecisionEvent::Throttle {
                scan: ScanId(0),
                group: AnchorId(0),
                distance_pages: 160,
                threshold_pages: 32,
                wait: SimDuration::from_millis(12),
                accumulated_slowdown: SimDuration::from_millis(12),
                slowdown_budget: SimDuration::from_secs(80),
                fairness_cap: 0.8,
                trailer: ScanId(1),
                trailer_speed: 40.0,
            },
            DecisionEvent::Unthrottle {
                scan: ScanId(0),
                group: AnchorId(0),
                distance_pages: 20,
                threshold_pages: 32,
            },
            DecisionEvent::SlowdownCapHit {
                scan: ScanId(0),
                accumulated_slowdown: SimDuration::from_secs(80),
                slowdown_budget: SimDuration::from_secs(80),
                fairness_cap: 0.8,
            },
            DecisionEvent::RoleChange {
                scan: ScanId(1),
                group: AnchorId(0),
                from: Role::Middle,
                to: Role::Trailer,
                group_extent: 48,
                members: 3,
            },
            DecisionEvent::PageReprioritize {
                scan: ScanId(1),
                role: Role::Trailer,
                from: PagePriority::Normal,
                to: PagePriority::Low,
            },
            DecisionEvent::FaultInjected {
                scan: ScanId(2),
                device: 1,
                page: 640,
                transient: true,
                attempt: 2,
            },
            DecisionEvent::ScanEvicted {
                scan: ScanId(2),
                group: AnchorId(0),
                object: ObjectId(3),
                reason: "permanent read fault on device 1".to_string(),
                remaining: 2,
            },
            DecisionEvent::DegradedMode {
                scan: ScanId(2),
                evicted_total: 1,
                active: 2,
            },
            DecisionEvent::PolicyChosen {
                scan: ScanId(0),
                policy: Placement::Elevator,
            },
            DecisionEvent::DriverAttach {
                scan: ScanId(3),
                driver: ScanId(0),
                object: ObjectId(3),
                missed_pages: 48,
                consumers: 3,
            },
            DecisionEvent::DriverHandoff {
                scan: ScanId(1),
                from: ScanId(0),
                object: ObjectId(3),
                remaining_pages: 512,
                consumers: 2,
            },
            DecisionEvent::ScanStarted {
                scan: ScanId(4),
                query: "Q6".to_string(),
                stream: 2,
            },
            DecisionEvent::ScanWrapped { scan: ScanId(4) },
            DecisionEvent::ScanEnded { scan: ScanId(4) },
        ]
    }

    #[test]
    fn json_round_trips_every_event_kind() {
        let mut log = DecisionLog::new(64);
        for (i, e) in sample_events().into_iter().enumerate() {
            log.record(SimTime::from_millis(i as u64), e);
        }
        let records = log.since(&mut 0);
        assert_eq!(records.len(), 16);
        let json = serde_json::to_string(&records).unwrap();
        let back: Vec<DecisionRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn cap_drops_oldest_and_counts() {
        let mut log = DecisionLog::new(2);
        for i in 0..5u64 {
            log.record(
                SimTime::from_millis(i),
                DecisionEvent::Unthrottle {
                    scan: ScanId(i),
                    group: AnchorId(0),
                    distance_pages: 0,
                    threshold_pages: 32,
                },
            );
        }
        assert_eq!(log.since(&mut 0).len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.since(&mut 0)[0].event.scan(), ScanId(3));
    }

    #[test]
    fn since_hands_out_each_record_once_across_drops() {
        let unthrottle = |i: u64| DecisionEvent::Unthrottle {
            scan: ScanId(i),
            group: AnchorId(0),
            distance_pages: 0,
            threshold_pages: 32,
        };
        let mut log = DecisionLog::new(3);
        let mut seen = 0;
        let scans =
            |rs: Vec<DecisionRecord>| -> Vec<u64> { rs.iter().map(|r| r.event.scan().0).collect() };
        for i in 0..2 {
            log.record(SimTime::from_millis(i), unthrottle(i));
        }
        assert_eq!(scans(log.since(&mut seen)), [0, 1]);
        assert_eq!(scans(log.since(&mut seen)), Vec::<u64>::new());
        log.record(SimTime::from_millis(2), unthrottle(2));
        assert_eq!(scans(log.since(&mut seen)), [2]);
        // Past the cap the reader gets what is still retained.
        for i in 3..8 {
            log.record(SimTime::from_millis(i), unthrottle(i));
        }
        assert_eq!(scans(log.since(&mut seen)), [5, 6, 7]);
        assert_eq!((seen, log.dropped()), (8, 5));
    }

    #[test]
    fn describe_names_thresholds_and_caps() {
        let events = sample_events();
        let throttle = describe(&events[2]);
        assert!(throttle.contains("threshold 32 pages"), "got: {throttle}");
        assert!(throttle.contains("80%"), "got: {throttle}");
        assert!(throttle.contains("trailer 1"), "got: {throttle}");
        let join = describe(&events[1]);
        assert!(join.contains("joins scan 0"), "got: {join}");
        assert!(join.contains("threshold 16.0"), "got: {join}");
        let cap = describe(&events[4]);
        assert!(cap.contains("slowdown cap"), "got: {cap}");
        let role = describe(&events[5]);
        assert!(role.contains("middle -> trailer"), "got: {role}");
        let prio = describe(&events[6]);
        assert!(prio.contains("low"), "got: {prio}");
        let fault = describe(&events[7]);
        assert!(
            fault.contains("transient read fault on device 1 page 640"),
            "got: {fault}"
        );
        assert!(fault.contains("attempt 2"), "got: {fault}");
        let evict = describe(&events[8]);
        assert!(evict.contains("evicted"), "got: {evict}");
        assert!(evict.contains("2 members remain"), "got: {evict}");
        let degraded = describe(&events[9]);
        assert!(degraded.contains("degraded mode"), "got: {degraded}");
        let policy = describe(&events[10]);
        assert!(policy.contains("policy 'elevator'"), "got: {policy}");
        let attach = describe(&events[11]);
        assert!(
            attach.contains("attached to push driver 0"),
            "got: {attach}"
        );
        assert!(
            attach.contains("48 missed pages replayed via private pull cursor"),
            "got: {attach}"
        );
        let handoff = describe(&events[12]);
        assert!(handoff.contains("driver handoff"), "got: {handoff}");
        assert!(
            handoff.contains("takes the cursor from scan 0"),
            "got: {handoff}"
        );
        assert!(handoff.contains("512 pages left"), "got: {handoff}");
        let founder = describe(&DecisionEvent::DriverAttach {
            scan: ScanId(0),
            driver: ScanId(0),
            object: ObjectId(3),
            missed_pages: 0,
            consumers: 1,
        });
        assert!(founder.contains("nothing to catch up"), "got: {founder}");
        let started = describe(&events[13]);
        assert_eq!(started, "scan 4 started for Q6 (stream 2)");
        assert!(describe(&events[14]).contains("wrapped"));
        assert_eq!(describe(&events[15]), "scan 4 ended");
    }

    #[test]
    fn accessors_expose_scan_and_group() {
        let events = sample_events();
        assert_eq!(events[0].scan(), ScanId(0));
        assert_eq!(events[0].group(), None);
        assert_eq!(events[2].group(), Some(AnchorId(0)));
        assert_eq!(events[5].group(), Some(AnchorId(0)));
        assert_eq!(events[7].scan(), ScanId(2));
        assert_eq!(events[7].group(), None);
        assert_eq!(events[8].group(), Some(AnchorId(0)));
        assert_eq!(events[9].group(), None);
        assert_eq!(events[10].scan(), ScanId(0));
        assert_eq!(events[10].group(), None);
        assert_eq!(events[11].scan(), ScanId(3));
        assert_eq!(events[11].group(), None);
        assert_eq!(events[12].scan(), ScanId(1));
        assert_eq!(events[12].group(), None);
        for e in &events[13..] {
            assert_eq!(e.scan(), ScanId(4));
            assert_eq!(e.group(), None);
        }
    }

    fn rec(ms: u64, event: DecisionEvent) -> DecisionRecord {
        DecisionRecord {
            at: SimTime::from_millis(ms),
            event,
        }
    }

    fn throttle(scan: u64, wait_ms: u64) -> DecisionEvent {
        DecisionEvent::Throttle {
            scan: ScanId(scan),
            group: AnchorId(0),
            distance_pages: 160,
            threshold_pages: 32,
            wait: SimDuration::from_millis(wait_ms),
            accumulated_slowdown: SimDuration::from_millis(wait_ms),
            slowdown_budget: SimDuration::from_secs(80),
            fairness_cap: 0.8,
            trailer: ScanId(2),
            trailer_speed: 40.0,
        }
    }

    fn join(scan: u64, joined: Option<u64>, key: i64, back_up_pages: u64) -> DecisionEvent {
        DecisionEvent::GroupJoin {
            scan: ScanId(scan),
            object: ObjectId(3),
            joined: joined.map(ScanId),
            location: Location::new(key, key as u64),
            back_up_pages,
            candidates: vec![],
            threshold_pages: 16.0,
        }
    }

    fn started(scan: u64, stream: usize) -> DecisionEvent {
        DecisionEvent::ScanStarted {
            scan: ScanId(scan),
            query: "Q6".to_string(),
            stream,
        }
    }

    /// Scan 1 starts fresh and is throttled twice; scan 2 joins it at key
    /// 5 and wraps.
    fn two_scans() -> Vec<DecisionRecord> {
        let fresh = DecisionEvent::GroupStart {
            scan: ScanId(1),
            object: ObjectId(3),
            candidates: vec![],
            threshold_pages: 16.0,
        };
        vec![
            rec(10, fresh),
            rec(10, started(1, 0)),
            rec(12, join(2, Some(1), 5, 0)),
            rec(12, started(2, 1)),
            rec(20, throttle(1, 3)),
            rec(30, throttle(1, 2)),
            rec(40, DecisionEvent::ScanWrapped { scan: ScanId(2) }),
            rec(50, DecisionEvent::ScanEnded { scan: ScanId(1) }),
            rec(60, DecisionEvent::ScanEnded { scan: ScanId(2) }),
        ]
    }

    #[test]
    fn lifecycles_reassemble_every_scan() {
        let spans = lifecycles(&two_scans());
        assert_eq!(spans.len(), 2);
        let s1 = &spans[0];
        assert_eq!(s1.scan, ScanId(1));
        assert_eq!(s1.query.as_deref(), Some("Q6"));
        assert_eq!(s1.placement.as_deref(), Some("fresh"));
        assert_eq!(s1.throttles, 2);
        assert_eq!(s1.throttle_wait, SimDuration::from_millis(5));
        assert_eq!(s1.elapsed(), Some(SimDuration::from_millis(40)));
        assert_eq!(s1.wraps, 0);
        let s2 = &spans[1];
        assert_eq!(s2.wraps, 1);
        assert_eq!(s2.stream, Some(1));
        assert_eq!(s2.placement.as_deref(), Some("join scan 1 @ key 5"));
        assert_eq!(s2.start, Some(SimTime::from_millis(12)));
    }

    #[test]
    fn placement_reads_the_start_decision_and_a_push_attach_wins() {
        let attach = |scan, missed_pages| DecisionEvent::DriverAttach {
            scan: ScanId(scan),
            driver: ScanId(4),
            object: ObjectId(3),
            missed_pages,
            consumers: 2,
        };
        let log = vec![
            rec(1, join(3, None, 7, 320)),
            rec(2, join(4, Some(3), 9, 0)),
            rec(2, attach(4, 0)),
            rec(3, join(5, Some(4), 9, 0)),
            rec(3, attach(5, 48)),
        ];
        let placements: Vec<_> = lifecycles(&log)
            .into_iter()
            .map(|s| s.placement.unwrap())
            .collect();
        assert_eq!(
            placements,
            [
                "join finished @ key 7 (-320 pages)",
                "push-driver",
                "push-rider(driver s4, catch-up 48p)"
            ]
        );
    }

    #[test]
    fn lifecycles_leave_unrecorded_fields_empty() {
        // Only a fault's end survived the cap: no start, so no elapsed.
        let evicted = DecisionEvent::ScanEvicted {
            scan: ScanId(7),
            group: AnchorId(0),
            object: ObjectId(3),
            reason: "permanent read fault".to_string(),
            remaining: 0,
        };
        let s = lifecycles(&[rec(9, evicted)]);
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].start, s[0].elapsed()), (None, None));
        assert_eq!(s[0].finish, Some(SimTime::from_millis(9)));
        // A log without lifecycle records still places and throttles.
        let old: Vec<_> = two_scans()
            .into_iter()
            .filter(|r| matches!(r.event, DecisionEvent::GroupStart { .. }))
            .chain([rec(20, throttle(1, 3))])
            .collect();
        let s = &lifecycles(&old)[0];
        assert_eq!((s.query.as_deref(), s.stream), (None, None));
        assert_eq!(s.placement.as_deref(), Some("fresh"));
        assert_eq!((s.start, s.finish), (Some(SimTime::from_millis(10)), None));
        assert_eq!(s.throttles, 1);
        let text = render_lifecycles(&old);
        let row = text.lines().nth(2).unwrap();
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols[..6], ["1", "-", "-", "fresh", "0.010", "-"], "{row}");
    }

    #[test]
    fn render_lists_lifecycles_then_their_events() {
        let text = render_lifecycles(&two_scans());
        assert!(text.starts_with("== scan lifecycles (2) =="), "{text}");
        assert!(text.contains("== events (7) =="), "{text}");
        assert!(text.contains("0.010s scan   1 start   Q6 (stream 0, fresh)"));
        let wait = SimDuration::from_millis(3);
        assert!(text.contains(&format!("0.020s scan   1 throttle {wait} (leader)")));
        assert!(text.contains("0.040s scan   2 wrap\n"));
        assert!(text.ends_with("0.060s scan   2 finish\n"), "{text}");
    }

    #[test]
    fn slowdown_frac_clamps_and_handles_zero_budget() {
        let z = SimDuration::ZERO;
        assert_eq!(slowdown_frac(z, z), 0.0);
        assert_eq!(slowdown_frac(SimDuration::from_secs(1), z), 1.0);
        let f = slowdown_frac(SimDuration::from_secs(1), SimDuration::from_secs(4));
        assert!((f - 0.25).abs() < 1e-9);
        assert_eq!(
            slowdown_frac(SimDuration::from_secs(9), SimDuration::from_secs(4)),
            1.0
        );
    }
}
