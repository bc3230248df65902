//! The scan-sharing manager facade — the paper's ISM/"table scan sharing
//! manager", unified over table scans and index scans.
//!
//! One manager exists per buffer pool. Scans interact with it through
//! exactly the calls the papers add to the scan operators (their bold
//! lines in Figure 3):
//!
//! * [`ScanSharingManager::start_scan`] → placement decision,
//! * [`ScanSharingManager::update_location`] → throttle wait + release
//!   priority,
//! * [`ScanSharingManager::wrap_scan`] → the scan entered its second
//!   phase (from the original start key to the assigned start location),
//! * [`ScanSharingManager::end_scan`] → deregistration.
//!
//! The manager is thread-safe (a single mutex around its state); calls
//! arrive once per extent per scan. The papers report well under 1 %
//! overhead for this bookkeeping, on an engine where an extent costs
//! milliseconds of I/O. In the simulator an extent costs microseconds of
//! host time, so the manager is a visible share of a run: every
//! `update_location` re-forms the groups (O(L log L) for L ongoing scans,
//! see [`crate::grouping`]) and every `start_scan` scores the compatible
//! scans (O(|S|² log |S|) per anchor group, see [`crate::placement`]).
//! On the repo benchmark's 64-stream pull workload that is about a
//! quarter of host time; it was over half until ISSUE 14 removed a cubic
//! loop from placement and a quadratic one from grouping (DESIGN.md §9d
//! has the before/after).

use parking_lot::Mutex;
use scanshare_storage::{PagePriority, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::anchor::AnchorTable;
use crate::config::SharingConfig;
use crate::decision::{DecisionEvent, DecisionLog};
use crate::grouping::{group_chains, GroupInfo, Groups, Role};
use crate::obs::span::{SpanProfiler, Track};
use crate::policy::{policy_for, FinishedView, PolicyView, ScanView, SharingPolicy};
use crate::scan::{Location, ObjectId, ScanDesc, ScanId, ScanKind, ScanState};
use crate::stats::SharingStats;
use crate::throttle;

/// Position token meaning "not yet reported by the engine". Locations
/// with this token never participate in coincidence merges.
pub const UNKNOWN_POS: u64 = u64::MAX;

/// Where a new scan should start, as decided by placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartDecision {
    /// Start at the scan's own start key.
    FromStart,
    /// Start at `location`, which is the current location of `scan`
    /// (or of the most recently finished scan when `scan` is `None`).
    JoinAt {
        /// The location to start scanning from.
        location: Location,
        /// The ongoing scan being joined, if any.
        scan: Option<ScanId>,
        /// How many pages *before* `location` the scan should actually
        /// begin. Zero when joining an ongoing scan; when joining a
        /// finished scan this is the number of its trailing pages
        /// expected to still be in the pool ("technically, we should
        /// start the new scan several pages before the last scan's
        /// location" — §6.3). The caller resolves the backup, since only
        /// it can walk the index backwards.
        back_up_pages: u64,
    },
}

impl StartDecision {
    /// Whether the scan starts at its own start key.
    pub fn is_from_start(&self) -> bool {
        matches!(self, StartDecision::FromStart)
    }

    /// The join location, if the scan was placed at one.
    pub fn join_location(&self) -> Option<Location> {
        match self {
            StartDecision::JoinAt { location, .. } => Some(*location),
            StartDecision::FromStart => None,
        }
    }
}

/// What `update_location` tells the calling scan to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Wait this long before continuing (zero when not throttled). The
    /// papers implement this as the update call itself taking longer.
    pub wait: scanshare_storage::SimDuration,
    /// Priority to attach when releasing the pages just processed.
    pub priority: PagePriority,
    /// The scan's current role, for diagnostics.
    pub role: Role,
}

/// Point-in-time introspection of one ongoing scan — the per-scan gauges
/// the observability layer samples: where the scan is, how fast it moves,
/// and how much of its fairness-cap slowdown budget is already spent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanProbe {
    /// The scan.
    pub id: ScanId,
    /// Current role in its group.
    pub role: Role,
    /// Pages left in the scan range (estimate).
    pub remaining_pages: u64,
    /// Recent speed in pages/second.
    pub speed: f64,
    /// Total throttle wait injected so far.
    pub accumulated_slowdown: SimDuration,
    /// The fairness-cap budget (`fairness_cap × est_time`, priority-scaled
    /// under dynamic fairness).
    pub slowdown_budget: SimDuration,
    /// Fraction of the budget spent, in `[0, 1]` (1.0 once exhausted).
    pub slowdown_frac: f64,
    /// Whether the scan hit the cap and is permanently exempt.
    pub throttle_exempt: bool,
}

/// Point-in-time introspection of the whole manager: the formed groups
/// (with leader–trailer extents) and every ongoing scan's throttle state.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ManagerProbe {
    /// Current groups, singletons included, in anchor order.
    pub groups: Vec<GroupInfo>,
    /// Per-scan state, in scan-id order.
    pub scans: Vec<ScanProbe>,
}

impl ManagerProbe {
    /// Number of multi-member groups (actively shared page streams).
    pub fn shared_groups(&self) -> usize {
        self.groups.iter().filter(|g| g.members.len() > 1).count()
    }

    /// Largest leader–trailer distance over all groups, in pages.
    pub fn max_extent(&self) -> u64 {
        self.groups.iter().map(|g| g.extent).max().unwrap_or(0)
    }
}

struct FinishedScan {
    location: Location,
    kind: ScanKind,
    /// Value of the global churn counter when the scan ended; if more
    /// than a pool's worth of pages has been read since, the leftovers
    /// are gone and joining this location buys nothing.
    churn_at_end: u64,
}

struct Inner {
    /// Ongoing scans, ascending by id (ids are issued ascending, so a new
    /// scan is pushed at the back). Every walk over the scans is thereby
    /// in the deterministic order placement and provenance need.
    scans: Vec<ScanState>,
    anchors: AnchorTable,
    /// Canonical anchor per table object: table-scan locations are
    /// directly comparable page numbers, so every table scan on an object
    /// lives in one anchor group with offset = page number.
    table_anchors: HashMap<ObjectId, crate::anchor::AnchorId>,
    last_finished: HashMap<ObjectId, FinishedScan>,
    /// Total pages advanced by all scans — a proxy for buffer pool churn.
    total_pages_advanced: u64,
    next_scan: u64,
    stats: SharingStats,
    /// Scans removed from sharing by [`ScanSharingManager::evict_scan`]
    /// (fault degradation). Kept out of [`SharingStats`] so fault-free
    /// reports serialize byte-identically to pre-fault builds.
    evicted_by_fault: u64,
}

impl Inner {
    fn index_of(&self, id: ScanId) -> Option<usize> {
        self.scans.binary_search_by_key(&id, |s| s.id).ok()
    }

    fn scan(&self, id: ScanId) -> Option<&ScanState> {
        self.index_of(id).map(|i| &self.scans[i])
    }

    fn compute_groups(&self, pool_pages: u64) -> Groups {
        group_chains(
            self.scans
                .iter()
                .map(|s| (s.anchor, s.anchor_offset, s.id))
                .collect(),
            pool_pages,
        )
    }
}

/// The scan-sharing manager. One per buffer pool.
pub struct ScanSharingManager {
    cfg: SharingConfig,
    /// The sharing policy in effect, built from [`SharingConfig::policy`].
    /// Placement and the throttle/priority gates dispatch through it.
    policy: Box<dyn SharingPolicy>,
    inner: Mutex<Inner>,
    /// Optional decision-provenance sink; every policy decision is
    /// recorded here when attached (see [`crate::decision`]).
    decisions: Mutex<Option<DecisionLog>>,
    /// Optional span profiler; placement and re-grouping decisions emit
    /// instant spans on the manager track when attached (see
    /// [`crate::obs::span`]).
    profiler: Mutex<Option<SpanProfiler>>,
}

impl ScanSharingManager {
    /// Create a manager for a pool of `cfg.pool_pages` pages.
    pub fn new(cfg: SharingConfig) -> Self {
        ScanSharingManager {
            policy: policy_for(cfg.policy),
            cfg,
            inner: Mutex::new(Inner {
                scans: Vec::new(),
                anchors: AnchorTable::default(),
                table_anchors: HashMap::new(),
                last_finished: HashMap::new(),
                total_pages_advanced: 0,
                next_scan: 0,
                stats: SharingStats::default(),
                evicted_by_fault: 0,
            }),
            decisions: Mutex::new(None),
            profiler: Mutex::new(None),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SharingConfig {
        &self.cfg
    }

    /// Attach a decision-provenance log; subsequent policy decisions are
    /// recorded into it. Clones of the log share the buffer, so the
    /// caller keeps its handle to read the events back.
    pub fn attach_decision_log(&self, log: DecisionLog) {
        *self.decisions.lock() = Some(log);
    }

    /// The attached decision log, if any.
    pub fn decision_log(&self) -> Option<DecisionLog> {
        self.decisions.lock().clone()
    }

    fn emit(&self, at: SimTime, event: DecisionEvent) {
        if let Some(log) = self.decisions.lock().as_ref() {
            log.record(at, event);
        }
    }

    /// Attach a span profiler; placement and re-grouping decisions emit
    /// instant spans on [`Track::Manager`], nested under whatever engine
    /// span is open when the manager is called. Clones share the span
    /// buffer, so the caller keeps its handle to export the trace.
    pub fn attach_profiler(&self, profiler: SpanProfiler) {
        *self.profiler.lock() = Some(profiler);
    }

    /// Record an instant span on the manager track with `attrs`, when a
    /// profiler is attached. Called once per scan lifetime event (start,
    /// eviction), never per extent, so unprofiled runs pay one mutex
    /// probe on a cold path only.
    fn span_instant(&self, name: &str, at: SimTime, attrs: &[(&str, String)]) {
        if let Some(p) = self.profiler.lock().as_ref() {
            let id = p.instant_on(Track::Manager, name, at);
            for (k, v) in attrs {
                p.attr(id, k, v.clone());
            }
        }
    }

    /// Minimum absolute saving (pages) a placement candidate must offer,
    /// as recorded on placement provenance events.
    fn placement_threshold(&self) -> f64 {
        self.policy.placement_threshold(&self.cfg)
    }

    /// Snapshot the state a [`SharingPolicy`] may consult when placing a
    /// new scan on `object`, taken under the manager's lock.
    fn policy_view<'a>(&'a self, inner: &'a Inner, object: ObjectId) -> PolicyView<'a> {
        let scans = inner
            .scans
            .iter()
            .map(|s| ScanView {
                id: s.id,
                desc: &s.desc,
                location: s.location,
                remaining_pages: s.remaining_pages,
                speed: s.speed,
                anchor: s.anchor,
                anchor_offset: s.anchor_offset,
            })
            .collect();
        PolicyView {
            cfg: &self.cfg,
            scans,
            last_finished: inner.last_finished.get(&object).map(|f| FinishedView {
                location: f.location,
                kind: f.kind,
                churn_at_end: f.churn_at_end,
            }),
            total_pages_advanced: inner.total_pages_advanced,
        }
    }

    /// Register a new scan and decide where it starts (`startSISCAN`).
    pub fn start_scan(&self, desc: ScanDesc, now: SimTime) -> (ScanId, StartDecision) {
        let mut inner = self.inner.lock();
        let id = ScanId(inner.next_scan);
        inner.next_scan += 1;
        inner.stats.scans_started += 1;

        // Non-default policies announce themselves once, on the first
        // scan, so `explain` can narrate which policy shaped the run. The
        // default policy stays silent to keep grouping-policy reports
        // byte-identical to pre-policy-framework builds.
        if id.0 == 0 && self.policy.kind() != crate::policy::SharingPolicyKind::Grouping {
            self.emit(
                now,
                DecisionEvent::PolicyChosen {
                    scan: id,
                    policy: self.policy.kind(),
                },
            );
        }

        let mut candidates = Vec::new();
        let decision = if self.cfg.enable_placement {
            let view = self.policy_view(&inner, desc.object);
            self.policy.place(&view, &desc, &mut candidates)
        } else {
            StartDecision::FromStart
        };

        // Resolve the anchor/offset the new scan registers with.
        let (anchor, offset, location) = match (&decision, desc.kind) {
            (
                StartDecision::JoinAt {
                    location,
                    scan: Some(other),
                    ..
                },
                _,
            ) => {
                let o = inner.scan(*other).expect("policies join ongoing scans");
                (o.anchor, o.anchor_offset, *location)
            }
            (
                StartDecision::JoinAt {
                    location,
                    scan: None,
                    ..
                },
                ScanKind::Table,
            ) => {
                let a = Self::table_anchor(&mut inner, desc.object);
                (a, location.pos as i64, *location)
            }
            (
                StartDecision::JoinAt {
                    location,
                    scan: None,
                    ..
                },
                ScanKind::Index,
            ) => {
                // Joining a finished scan: its group is gone, so the new
                // scan founds a fresh anchor at that location.
                (inner.anchors.fresh(), 0, *location)
            }
            (StartDecision::FromStart, ScanKind::Table) => {
                let a = Self::table_anchor(&mut inner, desc.object);
                (
                    a,
                    desc.start_key,
                    Location::new(desc.start_key, desc.start_key as u64),
                )
            }
            (StartDecision::FromStart, ScanKind::Index) => (
                inner.anchors.fresh(),
                0,
                Location::new(desc.start_key, UNKNOWN_POS),
            ),
        };
        match &decision {
            StartDecision::JoinAt { scan: Some(_), .. } => inner.stats.scans_joined += 1,
            StartDecision::JoinAt { scan: None, .. } => {
                // The optimal search places at arbitrary locations while
                // ongoing scans exist; the last-finished special case
                // only fires when none do. Disjoint, so attribution by
                // presence of ongoing same-kind scans is exact.
                let any_ongoing = inner
                    .scans
                    .iter()
                    .any(|s| s.desc.object == desc.object && s.desc.kind == desc.kind);
                if any_ongoing {
                    inner.stats.scans_placed_optimal += 1;
                } else {
                    inner.stats.scans_joined_finished += 1;
                }
            }
            StartDecision::FromStart => inner.stats.scans_from_start += 1,
        }
        let object = desc.object;
        let state = ScanState::new(id, desc, location, anchor, offset, now);
        inner.scans.push(state);
        let threshold_pages = self.placement_threshold();
        self.span_instant(
            "mgr.place",
            now,
            &[
                ("scan", id.0.to_string()),
                ("object", object.0.to_string()),
                ("policy", self.policy.kind().to_string()),
                ("candidates", candidates.len().to_string()),
                (
                    "decision",
                    match &decision {
                        StartDecision::FromStart => "from_start".to_string(),
                        StartDecision::JoinAt { scan: Some(s), .. } => format!("join scan {}", s.0),
                        StartDecision::JoinAt { scan: None, .. } => "join_location".to_string(),
                    },
                ),
            ],
        );
        match &decision {
            StartDecision::FromStart => self.emit(
                now,
                DecisionEvent::GroupStart {
                    scan: id,
                    object,
                    candidates,
                    threshold_pages,
                },
            ),
            StartDecision::JoinAt {
                location,
                scan,
                back_up_pages,
            } => self.emit(
                now,
                DecisionEvent::GroupJoin {
                    scan: id,
                    object,
                    joined: *scan,
                    location: *location,
                    back_up_pages: *back_up_pages,
                    candidates,
                    threshold_pages,
                },
            ),
        }
        (id, decision)
    }

    fn table_anchor(inner: &mut Inner, object: ObjectId) -> crate::anchor::AnchorId {
        if let Some(&a) = inner.table_anchors.get(&object) {
            return a;
        }
        let a = inner.anchors.fresh();
        inner.table_anchors.insert(object, a);
        a
    }

    /// `updateSISCANLocation`: record the scan's new location, maybe
    /// merge anchor groups, recompute leaders/trailers, and return the
    /// throttle wait plus the release priority for the processed pages.
    pub fn update_location(
        &self,
        id: ScanId,
        now: SimTime,
        location: Location,
        pages_advanced: u64,
    ) -> UpdateOutcome {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(idx) = inner.index_of(id) else {
            // Unknown scan (already ended): act as a no-op.
            return UpdateOutcome {
                wait: scanshare_storage::SimDuration::ZERO,
                priority: PagePriority::Normal,
                role: Role::Singleton,
            };
        };
        inner.scans[idx].advance(now, location, pages_advanced);
        inner.total_pages_advanced += pages_advanced;

        // §7.1 anchor merge: if this scan's new location coincides with
        // another ongoing scan's location, they are provably at the same
        // point — adopt that scan's anchor and offset so the partial
        // order now relates the two groups. Of several coinciding scans
        // the oldest (lowest id, first in `scans`) wins.
        if location.pos != UNKNOWN_POS {
            let state = &inner.scans[idx];
            let hit = inner
                .scans
                .iter()
                .find(|o| {
                    o.anchor != state.anchor
                        && o.desc.object == state.desc.object
                        && o.desc.kind == state.desc.kind
                        && o.location == location
                })
                .map(|o| (o.anchor, o.anchor_offset));
            if let Some((anchor, offset)) = hit {
                let state = &mut inner.scans[idx];
                state.anchor = anchor;
                state.anchor_offset = offset;
                inner.stats.anchor_merges += 1;
            }
        }

        let groups = inner.compute_groups(self.cfg.pool_pages);
        let role = groups.role(id).unwrap_or(Role::Singleton);
        let group = groups.group_of(id);

        // Provenance: role reclassification (first classification sets
        // the baseline without an event).
        {
            let state = &mut inner.scans[idx];
            let prev = state.last_role;
            state.last_role = Some(role);
            if let (Some(prev), Some(g)) = (prev, group) {
                if prev != role {
                    self.emit(
                        now,
                        DecisionEvent::RoleChange {
                            scan: id,
                            group: g.anchor,
                            from: prev,
                            to: role,
                            group_extent: g.extent,
                            members: g.members.len(),
                        },
                    );
                }
            }
        }

        let threshold_pages = self.cfg.throttle_threshold_pages();
        let mut wait = scanshare_storage::SimDuration::ZERO;
        if self.cfg.enable_throttling && self.policy.throttles() && role == Role::Leader {
            let g = group.expect("leader has a group");
            let trailer = g.trailer();
            let trailer_speed = inner.scan(trailer).expect("trailer is ongoing").speed;
            let distance = g.extent;
            let (exempt_before, was_throttled, accumulated, exempt_after, budget);
            {
                let state = &mut inner.scans[idx];
                exempt_before = state.throttle_exempt;
                was_throttled = state.throttled;
                wait = throttle::throttle(&self.cfg, state, distance, trailer_speed);
                state.throttled = wait > scanshare_storage::SimDuration::ZERO;
                accumulated = state.accumulated_slowdown;
                exempt_after = state.throttle_exempt;
                budget = throttle::slowdown_budget(&self.cfg, &state.desc);
            }
            if wait > scanshare_storage::SimDuration::ZERO {
                inner.stats.waits_injected += 1;
                inner.stats.total_wait += wait;
                self.emit(
                    now,
                    DecisionEvent::Throttle {
                        scan: id,
                        group: g.anchor,
                        distance_pages: distance,
                        threshold_pages,
                        wait,
                        accumulated_slowdown: accumulated,
                        slowdown_budget: budget,
                        fairness_cap: self.cfg.fairness_cap,
                        trailer,
                        trailer_speed,
                    },
                );
            } else if !exempt_before && exempt_after {
                self.emit(
                    now,
                    DecisionEvent::SlowdownCapHit {
                        scan: id,
                        accumulated_slowdown: accumulated,
                        slowdown_budget: budget,
                        fairness_cap: self.cfg.fairness_cap,
                    },
                );
            } else if was_throttled {
                self.emit(
                    now,
                    DecisionEvent::Unthrottle {
                        scan: id,
                        group: g.anchor,
                        distance_pages: distance,
                        threshold_pages,
                    },
                );
            }
        } else {
            // No longer a throttling leader: a scan that was being slowed
            // is implicitly released.
            let state = &mut inner.scans[idx];
            if state.throttled {
                state.throttled = false;
                let (anchor, extent) = group
                    .map(|g| (g.anchor, g.extent))
                    .unwrap_or((state.anchor, 0));
                self.emit(
                    now,
                    DecisionEvent::Unthrottle {
                        scan: id,
                        group: anchor,
                        distance_pages: extent,
                        threshold_pages,
                    },
                );
            }
        }

        let priority = self.release_priority(role);
        // Provenance: the release priority for this scan's pages changed
        // with its role (pages enter the pool at `Normal`).
        {
            let state = &mut inner.scans[idx];
            let prev = state.last_priority.unwrap_or(PagePriority::Normal);
            state.last_priority = Some(priority);
            if prev != priority {
                self.emit(
                    now,
                    DecisionEvent::PageReprioritize {
                        scan: id,
                        role,
                        from: prev,
                        to: priority,
                    },
                );
            }
        }
        UpdateOutcome {
            wait,
            priority,
            role,
        }
    }

    /// The scan wrapped around to its start key (phase two of a SISCAN,
    /// or a table scan reaching the end of the table). Index scans found
    /// a fresh anchor group — their relation to the old group is unknown
    /// after the jump; table scans stay in the object's group with the
    /// new page offset.
    pub fn wrap_scan(&self, id: ScanId, now: SimTime, location: Location) {
        let mut inner = self.inner.lock();
        let Some(idx) = inner.index_of(id) else {
            return;
        };
        let (kind, object) = (inner.scans[idx].desc.kind, inner.scans[idx].desc.object);
        let (anchor, offset) = match kind {
            ScanKind::Table => (Self::table_anchor(&mut inner, object), location.pos as i64),
            ScanKind::Index => (inner.anchors.fresh(), 0),
        };
        let state = &mut inner.scans[idx];
        state.anchor = anchor;
        state.anchor_offset = offset;
        state.location = location;
        state.last_update = now;
    }

    /// `endSISCAN`: deregister and remember the final location so a
    /// later lone scan can pick up the leftovers.
    pub fn end_scan(&self, id: ScanId, _now: SimTime) {
        let mut inner = self.inner.lock();
        if let Some(idx) = inner.index_of(id) {
            let state = inner.scans.remove(idx);
            inner.stats.scans_finished += 1;
            let churn_at_end = inner.total_pages_advanced;
            inner.last_finished.insert(
                state.desc.object,
                FinishedScan {
                    location: state.location,
                    kind: state.desc.kind,
                    churn_at_end,
                },
            );
        }
    }

    /// The engine observed a fault plan firing in the scan's I/O path:
    /// record it as provenance so `explain`/`watch` narrate fault
    /// handling (including transient faults a retry absorbed).
    pub fn note_fault(
        &self,
        id: ScanId,
        now: SimTime,
        device: u32,
        page: u64,
        transient: bool,
        attempt: u32,
    ) {
        self.emit(
            now,
            DecisionEvent::FaultInjected {
                scan: id,
                device,
                page,
                transient,
                attempt,
            },
        );
    }

    /// Push delivery: should a late joiner that missed `missed_pages` of
    /// a `range_pages` lap attach to the ongoing driver (replaying the
    /// missed prefix privately) or found its own driver? Delegates to the
    /// sharing policy's [`crate::policy::SharingPolicy::attach_push`].
    pub fn attach_push(&self, missed_pages: u64, range_pages: u64) -> bool {
        self.policy.attach_push(missed_pages, range_pages)
    }

    /// Push delivery: `scan` attached to `driver`'s shared page stream
    /// (provenance for the `engine::push` consumer registry — the
    /// manager keeps no driver state of its own). `missed_pages` is the
    /// prefix the consumer replays privately; `consumers` counts the
    /// registry *after* the attach. Whether the attach happens at all is
    /// the policy's call via [`crate::policy::SharingPolicy::attach_push`].
    pub fn note_driver_attach(
        &self,
        scan: ScanId,
        driver: ScanId,
        object: ObjectId,
        now: SimTime,
        missed_pages: u64,
        consumers: usize,
    ) {
        self.span_instant(
            "mgr.push_attach",
            now,
            &[
                ("scan", scan.0.to_string()),
                ("driver", driver.0.to_string()),
                ("missed_pages", missed_pages.to_string()),
            ],
        );
        self.emit(
            now,
            DecisionEvent::DriverAttach {
                scan,
                driver,
                object,
                missed_pages,
                consumers,
            },
        );
    }

    /// Push delivery: the group-driver cursor moved from `from` to
    /// `scan` (the previous driver was evicted mid-lap). Throttling
    /// follows the cursor: after a handoff the new driver is the scan
    /// whose `update_location` calls the throttle machinery sees.
    pub fn note_driver_handoff(
        &self,
        scan: ScanId,
        from: ScanId,
        object: ObjectId,
        now: SimTime,
        remaining_pages: u64,
        consumers: usize,
    ) {
        self.span_instant(
            "mgr.push_handoff",
            now,
            &[
                ("scan", scan.0.to_string()),
                ("from", from.0.to_string()),
                ("remaining_pages", remaining_pages.to_string()),
            ],
        );
        self.emit(
            now,
            DecisionEvent::DriverHandoff {
                scan,
                from,
                object,
                remaining_pages,
                consumers,
            },
        );
    }

    /// Graceful degradation: remove a scan that died to a permanent
    /// fault (or exhausted its retries) from sharing. Its group re-forms
    /// without it, any throttling its position justified is lifted
    /// immediately (a leader must not keep waiting for a dead trailer),
    /// and survivor roles are reclassified. Unlike
    /// [`ScanSharingManager::end_scan`], the final location is *not*
    /// remembered as joinable leftovers — the scan did not finish its
    /// pass, so its trailing pages are not a complete prefix.
    pub fn evict_scan(&self, id: ScanId, now: SimTime, reason: &str) {
        let mut inner = self.inner.lock();
        let Some(idx) = inner.index_of(id) else {
            return;
        };
        let state = inner.scans.remove(idx);
        inner.evicted_by_fault += 1;
        let evicted_total = inner.evicted_by_fault;
        let anchor = state.anchor;
        let remaining = inner.scans.iter().filter(|s| s.anchor == anchor).count();
        self.emit(
            now,
            DecisionEvent::ScanEvicted {
                scan: id,
                group: anchor,
                object: state.desc.object,
                reason: reason.to_string(),
                remaining,
            },
        );
        self.emit(
            now,
            DecisionEvent::DegradedMode {
                scan: id,
                evicted_total,
                active: inner.scans.len(),
            },
        );
        self.span_instant(
            "mgr.regroup",
            now,
            &[
                ("scan", id.0.to_string()),
                ("group", anchor.0.to_string()),
                ("reason", reason.to_string()),
                ("survivors", remaining.to_string()),
            ],
        );

        // Re-evaluate the survivors now instead of waiting for their next
        // location update: lift throttling and reclassify roles.
        let groups = inner.compute_groups(self.cfg.pool_pages);
        let threshold_pages = self.cfg.throttle_threshold_pages();
        for s in inner.scans.iter_mut() {
            let sid = s.id;
            let role = groups.role(sid).unwrap_or(Role::Singleton);
            let group = groups.group_of(sid);
            let (g_anchor, g_extent, g_members) = group
                .map(|g| (g.anchor, g.extent, g.members.len()))
                .unwrap_or((anchor, 0, 1));
            if s.throttled {
                s.throttled = false;
                self.emit(
                    now,
                    DecisionEvent::Unthrottle {
                        scan: sid,
                        group: g_anchor,
                        distance_pages: g_extent,
                        threshold_pages,
                    },
                );
            }
            if let Some(prev) = s.last_role {
                if prev != role {
                    s.last_role = Some(role);
                    self.emit(
                        now,
                        DecisionEvent::RoleChange {
                            scan: sid,
                            group: g_anchor,
                            from: prev,
                            to: role,
                            group_extent: g_extent,
                            members: g_members,
                        },
                    );
                }
            }
        }
    }

    /// Scans evicted from sharing by fault degradation.
    pub fn scans_evicted(&self) -> u64 {
        self.inner.lock().evicted_by_fault
    }

    /// Whether leader/trailer page re-prioritization is in effect: the
    /// configuration enables it and the policy uses it.
    fn prioritizes(&self) -> bool {
        self.cfg.enable_priorities && self.policy.prioritizes()
    }

    /// The release priority for the pages of a scan in `role`.
    fn release_priority(&self, role: Role) -> PagePriority {
        match role {
            Role::Leader if self.prioritizes() => PagePriority::High,
            Role::Trailer if self.prioritizes() => PagePriority::Low,
            _ => PagePriority::Normal,
        }
    }

    /// `ISM.pr()`: the release priority for a scan's pages right now —
    /// what [`ScanSharingManager::update_location`] would return for it.
    pub fn page_priority(&self, id: ScanId) -> PagePriority {
        if !self.prioritizes() {
            return PagePriority::Normal;
        }
        let inner = self.inner.lock();
        let groups = inner.compute_groups(self.cfg.pool_pages);
        self.release_priority(groups.role(id).unwrap_or(Role::Singleton))
    }

    /// Snapshot of the current groups (diagnostics, tests, examples).
    pub fn groups(&self) -> Vec<GroupInfo> {
        let inner = self.inner.lock();
        inner.compute_groups(self.cfg.pool_pages).groups
    }

    /// Full introspection snapshot: formed groups plus every scan's
    /// speed, remaining work, and slowdown-vs-cap accounting. This is
    /// what the engine's interval sampler reads to emit the per-group
    /// distance and per-scan slowdown series.
    pub fn probe(&self) -> ManagerProbe {
        let inner = self.inner.lock();
        let groups = inner.compute_groups(self.cfg.pool_pages);
        let scans: Vec<ScanProbe> = inner
            .scans
            .iter()
            .map(|s| {
                let budget = throttle::slowdown_budget(&self.cfg, &s.desc);
                let frac = if budget == SimDuration::ZERO {
                    if s.accumulated_slowdown == SimDuration::ZERO {
                        0.0
                    } else {
                        1.0
                    }
                } else {
                    (s.accumulated_slowdown.as_micros() as f64 / budget.as_micros() as f64).min(1.0)
                };
                ScanProbe {
                    id: s.id,
                    role: groups.role(s.id).unwrap_or(Role::Singleton),
                    remaining_pages: s.remaining_pages,
                    speed: s.speed,
                    accumulated_slowdown: s.accumulated_slowdown,
                    slowdown_budget: budget,
                    slowdown_frac: frac,
                    throttle_exempt: s.throttle_exempt,
                }
            })
            .collect();
        ManagerProbe {
            groups: groups.groups,
            scans,
        }
    }

    /// Number of ongoing scans.
    pub fn num_active(&self) -> usize {
        self.inner.lock().scans.len()
    }

    /// Decision counters.
    pub fn stats(&self) -> SharingStats {
        self.inner.lock().stats.clone()
    }

    /// The current speed estimate of a scan, in pages/second (tests).
    pub fn scan_speed(&self, id: ScanId) -> Option<f64> {
        self.inner.lock().scan(id).map(|s| s.speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_storage::SimDuration;

    fn table_desc(object: u64, pages: u64, secs: u64) -> ScanDesc {
        ScanDesc {
            kind: ScanKind::Table,
            object: ObjectId(object),
            start_key: 0,
            end_key: pages as i64 - 1,
            est_pages: pages,
            est_time: SimDuration::from_secs(secs),
            priority: Default::default(),
        }
    }

    fn index_desc(object: u64, lo: i64, hi: i64, pages: u64, secs: u64) -> ScanDesc {
        ScanDesc {
            kind: ScanKind::Index,
            object: ObjectId(object),
            start_key: lo,
            end_key: hi,
            est_pages: pages,
            est_time: SimDuration::from_secs(secs),
            priority: Default::default(),
        }
    }

    fn mgr(pool: u64) -> ScanSharingManager {
        ScanSharingManager::new(SharingConfig::new(pool))
    }

    fn mgr_with_policy(pool: u64, policy: crate::policy::SharingPolicyKind) -> ScanSharingManager {
        ScanSharingManager::new(SharingConfig::with_policy(pool, policy))
    }

    #[test]
    fn first_scan_starts_from_the_beginning() {
        let m = mgr(1000);
        let (_, d) = m.start_scan(table_desc(0, 1000, 10), SimTime::ZERO);
        assert!(d.is_from_start());
        assert_eq!(m.num_active(), 1);
    }

    #[test]
    fn second_table_scan_joins_the_first() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t = SimTime::from_secs(5);
        m.update_location(s1, t, Location::new(500, 500), 500);
        let (_, d) = m.start_scan(table_desc(0, 10_000, 100), t);
        assert_eq!(
            d,
            StartDecision::JoinAt {
                location: Location::new(500, 500),
                scan: Some(s1),
                back_up_pages: 0,
            }
        );
        assert_eq!(m.stats().scans_joined, 1);
    }

    #[test]
    fn scans_on_different_objects_do_not_join() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        m.update_location(s1, SimTime::from_secs(5), Location::new(500, 500), 500);
        let (_, d) = m.start_scan(table_desc(1, 10_000, 100), SimTime::from_secs(5));
        assert!(d.is_from_start());
    }

    #[test]
    fn index_scan_joins_only_within_key_range() {
        let m = mgr(1000);
        // Ongoing scan currently at key 50.
        let (s1, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        m.update_location(s1, SimTime::from_secs(5), Location::new(50, 480), 480);
        // New scan over keys [60, 90]: s1's key 50 is outside -> no join.
        let (_, d) = m.start_scan(index_desc(0, 60, 90, 1500, 15), SimTime::from_secs(5));
        assert!(d.is_from_start());
        // New scan over [40, 100]: s1 is inside -> join.
        let (_, d) = m.start_scan(index_desc(0, 40, 100, 3000, 30), SimTime::from_secs(5));
        assert_eq!(d.join_location(), Some(Location::new(50, 480)));
    }

    #[test]
    fn placement_disabled_always_starts_fresh() {
        let m = ScanSharingManager::new(SharingConfig {
            enable_placement: false,
            ..SharingConfig::new(1000)
        });
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        m.update_location(s1, SimTime::from_secs(5), Location::new(500, 500), 500);
        let (_, d) = m.start_scan(table_desc(0, 10_000, 100), SimTime::from_secs(5));
        assert!(d.is_from_start());
        assert_eq!(m.stats().scans_from_start, 2);
    }

    #[test]
    fn joined_scans_form_a_group_and_roles_emerge() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        m.update_location(s1, t1, Location::new(500, 500), 500);
        let (s2, d) = m.start_scan(table_desc(0, 10_000, 100), t1);
        assert!(!d.is_from_start());
        // s1 advances ahead of s2.
        let t2 = SimTime::from_secs(6);
        let o1 = m.update_location(s1, t2, Location::new(610, 610), 110);
        let o2 = m.update_location(s2, t2, Location::new(600, 600), 100);
        assert_eq!(o1.role, Role::Leader);
        assert_eq!(o2.role, Role::Trailer);
        assert_eq!(o1.priority, PagePriority::High);
        assert_eq!(o2.priority, PagePriority::Low);
        let groups = m.groups();
        let g = groups.iter().find(|g| g.members.len() == 2).unwrap();
        assert_eq!(g.extent, 10);
    }

    #[test]
    fn drifting_leader_gets_throttled() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        m.update_location(s1, t1, Location::new(500, 500), 500);
        let (s2, _) = m.start_scan(table_desc(0, 10_000, 100), t1);
        let t2 = SimTime::from_secs(6);
        // Leader sprints 200 pages while trailer crawls 40 -> distance
        // 160 > 32-page threshold.
        let o1 = m.update_location(s1, t2, Location::new(700, 700), 200);
        assert_eq!(o1.role, Role::Leader);
        assert!(o1.wait > SimDuration::ZERO, "leader must be throttled");
        let o2 = m.update_location(s2, t2, Location::new(540, 540), 40);
        assert_eq!(o2.role, Role::Trailer);
        assert_eq!(o2.wait, SimDuration::ZERO, "trailers are never throttled");
        let stats = m.stats();
        assert_eq!(stats.waits_injected, 1);
        assert!(stats.total_wait > SimDuration::ZERO);
    }

    #[test]
    fn evicting_a_dead_trailer_unthrottles_the_leader() {
        let m = mgr(1000);
        let log = crate::decision::DecisionLog::new(256);
        m.attach_decision_log(log.clone());
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        m.update_location(s1, t1, Location::new(500, 500), 500);
        let (s2, _) = m.start_scan(table_desc(0, 10_000, 100), t1);
        let t2 = SimTime::from_secs(6);
        // Leader sprints ahead of the trailer and gets throttled.
        m.update_location(s2, t2, Location::new(540, 540), 40);
        let o1 = m.update_location(s1, t2, Location::new(700, 700), 200);
        assert!(o1.wait > SimDuration::ZERO, "leader must be throttled");

        // The trailer dies to a permanent fault and is evicted.
        let t3 = SimTime::from_secs(7);
        m.note_fault(s2, t3, 0, 540, false, 1);
        m.evict_scan(s2, t3, "permanent read fault on device 0");
        assert_eq!(m.num_active(), 1);
        assert_eq!(m.scans_evicted(), 1);

        let events: Vec<_> = log.records().into_iter().map(|r| r.event).collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, DecisionEvent::FaultInjected { scan, transient: false, .. } if *scan == s2)),
            "fault provenance missing: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, DecisionEvent::ScanEvicted { scan, remaining: 1, .. } if *scan == s2)),
            "eviction event missing: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                DecisionEvent::DegradedMode {
                    evicted_total: 1,
                    active: 1,
                    ..
                }
            )),
            "degraded-mode event missing: {events:?}"
        );
        // The leader is released immediately, not at its next update.
        assert!(
            events
                .iter()
                .any(|e| matches!(e, DecisionEvent::Unthrottle { scan, .. } if *scan == s1)),
            "leader unthrottle missing: {events:?}"
        );
        // And reclassified: a group of one has no leader.
        assert!(
            events.iter().any(|e| matches!(
                e,
                DecisionEvent::RoleChange { scan, from: Role::Leader, to: Role::Singleton, .. } if *scan == s1
            )),
            "leader reclassification missing: {events:?}"
        );
        // The evicted scan's position is not joinable leftovers.
        let (_, d) = m.start_scan(table_desc(0, 10_000, 100), t3);
        assert!(
            matches!(d, StartDecision::JoinAt { scan: Some(j), .. } if j == s1)
                || d.is_from_start()
        );
    }

    #[test]
    fn evicting_an_unknown_scan_is_a_noop() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(table_desc(0, 1000, 10), SimTime::ZERO);
        m.end_scan(s1, SimTime::from_secs(1));
        let log = DecisionLog::new(16);
        m.attach_decision_log(log.clone());
        m.evict_scan(s1, SimTime::from_secs(2), "already gone");
        m.evict_scan(ScanId(99), SimTime::from_secs(2), "never issued");
        assert_eq!(m.scans_evicted(), 0);
        assert!(log.records().is_empty());
    }

    #[test]
    fn no_throttle_when_disabled() {
        let m = ScanSharingManager::new(SharingConfig {
            enable_throttling: false,
            ..SharingConfig::new(1000)
        });
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        m.update_location(s1, t1, Location::new(500, 500), 500);
        let (s2, _) = m.start_scan(table_desc(0, 10_000, 100), t1);
        let t2 = SimTime::from_secs(6);
        m.update_location(s2, t2, Location::new(540, 540), 40);
        let o1 = m.update_location(s1, t2, Location::new(700, 700), 200);
        assert_eq!(o1.wait, SimDuration::ZERO);
    }

    #[test]
    fn priorities_normal_when_disabled() {
        let m = ScanSharingManager::new(SharingConfig {
            enable_priorities: false,
            ..SharingConfig::new(1000)
        });
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let o = m.update_location(s1, SimTime::from_secs(1), Location::new(100, 100), 100);
        assert_eq!(o.priority, PagePriority::Normal);
        assert_eq!(m.page_priority(s1), PagePriority::Normal);
    }

    #[test]
    fn lone_scan_after_finish_joins_leftovers() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        m.update_location(s1, SimTime::from_secs(10), Location::new(80, 4000), 4000);
        m.end_scan(s1, SimTime::from_secs(12));
        assert_eq!(m.num_active(), 0);
        let (_, d) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::from_secs(12));
        assert_eq!(d.join_location(), Some(Location::new(80, 4000)));
        assert_eq!(m.stats().scans_joined_finished, 1);
    }

    #[test]
    fn churned_leftovers_are_not_joined() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        m.update_location(s1, SimTime::from_secs(10), Location::new(80, 4000), 4000);
        m.end_scan(s1, SimTime::from_secs(12));
        // A big scan on another object churns more than the pool size.
        let (s2, _) = m.start_scan(index_desc(1, 0, 100, 5000, 50), SimTime::from_secs(12));
        m.update_location(s2, SimTime::from_secs(20), Location::new(90, 4500), 4500);
        m.end_scan(s2, SimTime::from_secs(21));
        // The leftovers of s1 are long gone: start fresh.
        let (_, d) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::from_secs(21));
        assert!(d.is_from_start());
    }

    #[test]
    fn finished_scan_outside_range_is_not_joined() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        m.update_location(s1, SimTime::from_secs(10), Location::new(80, 4000), 4000);
        m.end_scan(s1, SimTime::from_secs(12));
        let (_, d) = m.start_scan(index_desc(0, 0, 50, 2500, 25), SimTime::from_secs(12));
        assert!(d.is_from_start());
    }

    #[test]
    fn anchor_merge_on_location_coincidence() {
        let m = mgr(10_000);
        // Two index scans starting independently (different anchors).
        let (s1, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        let t = SimTime::from_millis(10);
        m.update_location(s1, t, Location::new(10, 512), 512);
        let (s2, d) = m.start_scan(index_desc(0, 0, 9, 500, 5), t);
        // s2's range [0,9] does not contain s1's key 10 -> independent.
        assert!(d.is_from_start());
        // s2 eventually reaches the exact location s1 currently holds.
        let t2 = SimTime::from_millis(20);
        m.update_location(s2, t2, Location::new(10, 512), 200);
        assert_eq!(m.stats().anchor_merges, 1);
        // Now both are in one group.
        let groups = m.groups();
        assert!(groups.iter().any(|g| g.members.len() == 2));
    }

    #[test]
    fn wrap_resets_index_anchor_but_not_table_group() {
        let m = mgr(100_000);
        let (s1, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        let (s2, _) = m.start_scan(table_desc(1, 1000, 10), SimTime::ZERO);
        let (s3, _) = m.start_scan(table_desc(1, 1000, 10), SimTime::ZERO);
        m.update_location(s2, SimTime::from_secs(1), Location::new(100, 100), 100);
        m.update_location(s3, SimTime::from_secs(1), Location::new(120, 120), 120);
        // Table scans share a group before and after wrapping.
        m.wrap_scan(s3, SimTime::from_secs(2), Location::new(0, 0));
        let groups = m.groups();
        let table_group = groups
            .iter()
            .find(|g| g.members.contains(&s2) && g.members.contains(&s3));
        assert!(table_group.is_some(), "table scans stay comparable");
        // Index scan wraps to a fresh anchor: it is its own group.
        m.update_location(s1, SimTime::from_secs(2), Location::new(50, 2500), 2500);
        m.wrap_scan(s1, SimTime::from_secs(3), Location::new(0, 0));
        let groups = m.groups();
        let g1 = groups.iter().find(|g| g.members.contains(&s1)).unwrap();
        assert_eq!(g1.members.len(), 1);
    }

    #[test]
    fn end_scan_is_idempotent_and_updates_after_end_are_noops() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(table_desc(0, 100, 1), SimTime::ZERO);
        m.end_scan(s1, SimTime::from_secs(1));
        m.end_scan(s1, SimTime::from_secs(1));
        let o = m.update_location(s1, SimTime::from_secs(2), Location::new(5, 5), 5);
        assert_eq!(o.wait, SimDuration::ZERO);
        assert_eq!(m.stats().scans_finished, 1);

        // The same for an id from the middle of the live set and for one
        // that was never issued; the neighbours stay addressable.
        let ids: Vec<ScanId> = (0..3)
            .map(|_| m.start_scan(table_desc(0, 100, 1), SimTime::from_secs(2)).0)
            .collect();
        m.end_scan(ids[1], SimTime::from_secs(3));
        for gone in [ids[1], ScanId(99)] {
            let o = m.update_location(gone, SimTime::from_secs(4), Location::new(5, 5), 5);
            assert_eq!(
                (o.wait, o.priority, o.role),
                (SimDuration::ZERO, PagePriority::Normal, Role::Singleton)
            );
            m.wrap_scan(gone, SimTime::from_secs(4), Location::new(0, 0));
            m.end_scan(gone, SimTime::from_secs(4));
            assert_eq!(m.scan_speed(gone), None);
        }
        assert_eq!(m.stats().scans_finished, 2);
        assert_eq!(m.num_active(), 2);
        let probed: Vec<ScanId> = m.probe().scans.iter().map(|s| s.id).collect();
        assert_eq!(probed, vec![ids[0], ids[2]]);
        assert!(m.scan_speed(ids[0]).is_some() && m.scan_speed(ids[2]).is_some());
    }

    #[test]
    fn speed_tracks_recent_progress() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        assert!((m.scan_speed(s1).unwrap() - 100.0).abs() < 1e-9);
        m.update_location(s1, SimTime::from_secs(2), Location::new(500, 500), 500);
        assert!((m.scan_speed(s1).unwrap() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn optimal_strategy_places_table_scans_anywhere() {
        use crate::config::PlacementStrategy;
        let m = ScanSharingManager::new(SharingConfig {
            placement_strategy: PlacementStrategy::Optimal,
            ..SharingConfig::new(1000)
        });
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t = SimTime::from_secs(5);
        m.update_location(s1, t, Location::new(500, 500), 500);
        let (_, d) = m.start_scan(table_desc(0, 10_000, 100), t);
        // Placed somewhere in range, and counted as an optimal placement.
        let loc = d.join_location().expect("placed");
        assert!((0..10_000).contains(&loc.key));
        let stats = m.stats();
        assert_eq!(stats.scans_placed_optimal, 1);
        assert_eq!(stats.scans_joined_finished, 0);
    }

    #[test]
    fn optimal_strategy_falls_back_for_index_scans() {
        use crate::config::PlacementStrategy;
        let m = ScanSharingManager::new(SharingConfig {
            placement_strategy: PlacementStrategy::Optimal,
            ..SharingConfig::new(1000)
        });
        let (s1, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        m.update_location(s1, SimTime::from_secs(5), Location::new(50, 480), 480);
        let (_, d) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::from_secs(5));
        // Practical algorithm: joins the member's exact location.
        assert_eq!(d.join_location(), Some(Location::new(50, 480)));
        assert_eq!(m.stats().scans_joined, 1);
    }

    #[test]
    fn attach_strategy_joins_unconditionally() {
        use crate::config::PlacementStrategy;
        let m = ScanSharingManager::new(SharingConfig {
            placement_strategy: PlacementStrategy::AlwaysAttach,
            ..SharingConfig::new(1000)
        });
        // A scan that is nearly done: the practical algorithm would
        // refuse to join it; attach does anyway.
        let (s1, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        m.update_location(s1, SimTime::from_secs(49), Location::new(99, 4990), 4990);
        let (_, d) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::from_secs(49));
        assert_eq!(d.join_location(), Some(Location::new(99, 4990)));
        assert_eq!(m.stats().scans_joined, 1);
    }

    #[test]
    fn attach_picks_the_scan_with_most_remaining_work() {
        use crate::config::PlacementStrategy;
        let m = ScanSharingManager::new(SharingConfig {
            placement_strategy: PlacementStrategy::AlwaysAttach,
            ..SharingConfig::new(1000)
        });
        let (s1, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        let (s2, _) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO);
        // s1 is far along; s2 has barely started.
        m.update_location(s1, SimTime::from_secs(40), Location::new(80, 4000), 4000);
        m.update_location(s2, SimTime::from_secs(40), Location::new(10, 500), 500);
        let (_, d) = m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::from_secs(40));
        assert_eq!(
            d,
            StartDecision::JoinAt {
                location: Location::new(10, 500),
                scan: Some(s2),
                back_up_pages: 0
            }
        );
    }

    #[test]
    fn probe_reports_groups_and_slowdown_budget() {
        let m = mgr(1000);
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        m.update_location(s1, t1, Location::new(500, 500), 500);
        let (s2, _) = m.start_scan(table_desc(0, 10_000, 100), t1);
        let t2 = SimTime::from_secs(6);
        // Leader sprints ahead far enough to be throttled.
        m.update_location(s1, t2, Location::new(700, 700), 200);
        m.update_location(s2, t2, Location::new(540, 540), 40);
        let p = m.probe();
        assert_eq!(p.scans.len(), 2);
        assert_eq!(p.shared_groups(), 1);
        let g = p.groups.iter().find(|g| g.members.len() == 2).unwrap();
        assert_eq!(g.extent, 160);
        assert_eq!(p.max_extent(), 160);
        let leader = p.scans.iter().find(|s| s.id == s1).unwrap();
        assert_eq!(leader.role, Role::Leader);
        // Budget = 0.8 * 100s; some of it was just spent on a wait.
        assert_eq!(leader.slowdown_budget, SimDuration::from_secs(80));
        assert!(leader.accumulated_slowdown > SimDuration::ZERO);
        assert!(leader.slowdown_frac > 0.0 && leader.slowdown_frac < 1.0);
        assert!(!leader.throttle_exempt);
        let trailer = p.scans.iter().find(|s| s.id == s2).unwrap();
        assert_eq!(trailer.role, Role::Trailer);
        assert_eq!(trailer.accumulated_slowdown, SimDuration::ZERO);
        assert_eq!(trailer.slowdown_frac, 0.0);
        // The probe is serializable (the engine embeds it in artifacts).
        let json = serde_json::to_string(&p).unwrap();
        let back: ManagerProbe = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn decision_log_captures_placement_and_throttle_provenance() {
        use crate::decision::{DecisionEvent, DecisionLog};
        let m = mgr(1000);
        let log = DecisionLog::new(256);
        m.attach_decision_log(log.clone());
        assert!(m.decision_log().is_some());

        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        m.update_location(s1, t1, Location::new(500, 500), 500);
        let (s2, _) = m.start_scan(table_desc(0, 10_000, 100), t1);
        let t2 = SimTime::from_secs(6);
        // Leader sprints 200 pages while the trailer crawls 40 -> distance
        // 160 > threshold 32: a throttle fires.
        m.update_location(s1, t2, Location::new(700, 700), 200);
        m.update_location(s2, t2, Location::new(540, 540), 40);

        let events: Vec<_> = log.records().into_iter().map(|r| r.event).collect();
        // s1 opened its own group with no candidates to consider.
        assert!(matches!(
            &events[0],
            DecisionEvent::GroupStart { scan, candidates, .. }
                if *scan == s1 && candidates.is_empty()
        ));
        // s2 joined s1, and the candidate field names s1 with its score.
        let join = events
            .iter()
            .find_map(|e| match e {
                DecisionEvent::GroupJoin {
                    scan,
                    joined,
                    candidates,
                    threshold_pages,
                    ..
                } if *scan == s2 => Some((joined, candidates, threshold_pages)),
                _ => None,
            })
            .expect("GroupJoin for s2");
        assert_eq!(*join.0, Some(s1));
        assert_eq!(join.1.len(), 1);
        assert_eq!(join.1[0].scan, Some(s1));
        assert!(join.1[0].saving_pages >= *join.2);
        // The throttle decision carries distance, threshold, budget, cap.
        let throttle = events
            .iter()
            .find_map(|e| match e {
                DecisionEvent::Throttle {
                    scan,
                    distance_pages,
                    threshold_pages,
                    wait,
                    slowdown_budget,
                    fairness_cap,
                    trailer,
                    ..
                } if *scan == s1 => Some((
                    *distance_pages,
                    *threshold_pages,
                    *wait,
                    *slowdown_budget,
                    *fairness_cap,
                    *trailer,
                )),
                _ => None,
            })
            .expect("Throttle for s1");
        // At the leader's update the trailer is still at page 500, so
        // the recorded distance is 700 - 500 = 200.
        assert_eq!(throttle.0, 200);
        assert_eq!(throttle.1, 32);
        assert!(throttle.2 > SimDuration::ZERO);
        assert_eq!(throttle.3, SimDuration::from_secs(80));
        assert!((throttle.4 - 0.8).abs() < 1e-9);
        assert_eq!(throttle.5, s2);
        // Role flips were recorded (s1: singleton -> leader).
        assert!(events.iter().any(|e| matches!(
            e,
            DecisionEvent::RoleChange { scan, to: Role::Leader, .. } if *scan == s1
        )));
        // The leader's release priority moved Normal -> High.
        assert!(events.iter().any(|e| matches!(
            e,
            DecisionEvent::PageReprioritize {
                scan,
                from: PagePriority::Normal,
                to: PagePriority::High,
                ..
            } if *scan == s1
        )));
    }

    #[test]
    fn caught_up_leader_emits_unthrottle() {
        use crate::decision::{DecisionEvent, DecisionLog};
        let m = mgr(1000);
        let log = DecisionLog::new(256);
        m.attach_decision_log(log.clone());
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        m.update_location(s1, t1, Location::new(500, 500), 500);
        let (s2, _) = m.start_scan(table_desc(0, 10_000, 100), t1);
        let t2 = SimTime::from_secs(6);
        m.update_location(s1, t2, Location::new(700, 700), 200);
        m.update_location(s2, t2, Location::new(540, 540), 40);
        // The trailer closes the gap; the leader's next update finds the
        // distance back inside the threshold.
        let t3 = SimTime::from_secs(7);
        m.update_location(s2, t3, Location::new(690, 690), 150);
        let t4 = SimTime::from_secs(8);
        let o = m.update_location(s1, t4, Location::new(710, 710), 10);
        assert_eq!(o.wait, SimDuration::ZERO);
        let unthrottle = log
            .records()
            .into_iter()
            .find_map(|r| match r.event {
                DecisionEvent::Unthrottle {
                    scan,
                    distance_pages,
                    threshold_pages,
                    ..
                } if scan == s1 => Some((distance_pages, threshold_pages)),
                _ => None,
            })
            .expect("Unthrottle for s1");
        assert_eq!(unthrottle.0, 20);
        assert_eq!(unthrottle.1, 32);
    }

    #[test]
    fn exhausted_budget_emits_slowdown_cap_hit() {
        use crate::decision::{DecisionEvent, DecisionLog};
        let m = mgr(1000);
        let log = DecisionLog::new(256);
        m.attach_decision_log(log.clone());
        // Leader with a tiny 1s estimate -> 0.8s budget; trailer so slow
        // (est 10_000s) every raw wait clamps to max_wait 500ms.
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 1), SimTime::ZERO);
        let t1 = SimTime::from_millis(100);
        m.update_location(s1, t1, Location::new(500, 500), 500);
        let (_s2, _) = m.start_scan(table_desc(0, 10_000, 10_000), t1);
        // Three leader updates at ever-growing distance: grants 500ms,
        // then 300ms, then the budget is gone and the cap-hit fires.
        let mut pos = 700i64;
        for step in 1..=3u64 {
            let t = SimTime::from_millis(100 + step * 100);
            m.update_location(s1, t, Location::new(pos, pos as u64), 200);
            pos += 200;
        }
        let events: Vec<_> = log.records().into_iter().map(|r| r.event).collect();
        let waits: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                DecisionEvent::Throttle { scan, wait, .. } if *scan == s1 => Some(*wait),
                _ => None,
            })
            .collect();
        assert_eq!(
            waits,
            vec![SimDuration::from_millis(500), SimDuration::from_millis(300)]
        );
        let cap = events
            .iter()
            .find_map(|e| match e {
                DecisionEvent::SlowdownCapHit {
                    scan,
                    accumulated_slowdown,
                    slowdown_budget,
                    fairness_cap,
                } if *scan == s1 => Some((*accumulated_slowdown, *slowdown_budget, *fairness_cap)),
                _ => None,
            })
            .expect("SlowdownCapHit for s1");
        assert_eq!(cap.0, SimDuration::from_millis(800));
        assert_eq!(cap.1, SimDuration::from_millis(800));
        assert!((cap.2 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn no_log_attached_means_no_overhead_or_panic() {
        let m = mgr(1000);
        assert!(m.decision_log().is_none());
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        m.update_location(s1, SimTime::from_secs(1), Location::new(100, 100), 100);
        m.end_scan(s1, SimTime::from_secs(2));
    }

    #[test]
    fn manager_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScanSharingManager>();
    }

    #[test]
    fn concurrent_use_from_threads() {
        use std::sync::Arc;
        let m = Arc::new(mgr(10_000));
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let (id, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
                for step in 1..50u64 {
                    m.update_location(
                        id,
                        SimTime::from_millis(step * 10 + i),
                        Location::new((step * 16) as i64, step * 16),
                        16,
                    );
                }
                m.end_scan(id, SimTime::from_secs(1));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.num_active(), 0);
        assert_eq!(m.stats().scans_finished, 4);
    }

    // ---- ordering pins: what a keyed map would leave to chance ----

    #[test]
    fn probe_lists_scans_by_id_and_groups_by_anchor_then_offset() {
        let m = ScanSharingManager::new(SharingConfig {
            enable_placement: false,
            ..SharingConfig::new(50)
        });
        // Object 1 is registered first and so gets the lower anchor.
        let descs = [1, 0, 1, 0, 1, 0].map(|object| table_desc(object, 10_000, 100));
        let ids: Vec<ScanId> = descs
            .into_iter()
            .map(|d| m.start_scan(d, SimTime::ZERO).0)
            .collect();
        // Offsets chosen against id order; 5000/5010 are close enough to
        // share a group under the 50-page budget, the rest are not.
        let pages = [5000u64, 900, 20, 300, 5010, 40];
        for (&id, &p) in ids.iter().zip(&pages) {
            m.update_location(id, SimTime::from_secs(1), Location::new(p as i64, p), p);
        }
        m.end_scan(ids[3], SimTime::from_secs(2));
        let (late, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::from_secs(2));

        let p = m.probe();
        let probed: Vec<ScanId> = p.scans.iter().map(|s| s.id).collect();
        assert_eq!(probed, vec![ids[0], ids[1], ids[2], ids[4], ids[5], late]);
        let members: Vec<Vec<ScanId>> = p.groups.iter().map(|g| g.members.clone()).collect();
        assert_eq!(
            members,
            vec![
                vec![ids[2]],         // object 1 @ 20
                vec![ids[0], ids[4]], // object 1 @ 5000..5010
                vec![late],           // object 0 @ 0
                vec![ids[5]],         // object 0 @ 40
                vec![ids[1]],         // object 0 @ 900
            ]
        );
        assert_eq!(m.groups(), p.groups);
    }

    #[test]
    fn anchor_merge_adopts_the_lowest_id_among_coinciding_scans() {
        let m = ScanSharingManager::new(SharingConfig {
            enable_placement: false,
            ..SharingConfig::new(10_000)
        });
        let ids: Vec<ScanId> = (0..3)
            .map(|_| {
                m.start_scan(index_desc(0, 0, 100, 5000, 50), SimTime::ZERO)
                    .0
            })
            .collect();
        // s1 reaches a location; s0 lands on the same one by wrapping,
        // which founds a fresh anchor and merges nothing.
        let here = Location::new(10, 512);
        m.update_location(ids[1], SimTime::from_millis(10), here, 512);
        m.wrap_scan(ids[0], SimTime::from_millis(10), here);
        assert_eq!(m.groups().len(), 3);
        // s2 arrives: both coincide, the older s0 defines its coordinates.
        m.update_location(ids[2], SimTime::from_millis(20), here, 200);
        assert_eq!(m.stats().anchor_merges, 1);
        let members: Vec<Vec<ScanId>> = m.groups().into_iter().map(|g| g.members).collect();
        assert_eq!(members, vec![vec![ids[1]], vec![ids[0], ids[2]]]);
    }

    #[test]
    fn page_priority_agrees_with_update_location_under_every_policy() {
        for kind in [
            SharingPolicyKind::Grouping,
            SharingPolicyKind::Attach,
            SharingPolicyKind::Elevator,
        ] {
            let m = mgr_with_policy(1000, kind);
            let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
            let t1 = SimTime::from_secs(5);
            m.update_location(s1, t1, Location::new(500, 500), 500);
            let (s2, _) = m.start_scan(table_desc(0, 10_000, 100), t1);
            let t2 = SimTime::from_secs(6);
            let o1 = m.update_location(s1, t2, Location::new(610, 610), 110);
            let o2 = m.update_location(s2, t2, Location::new(600, 600), 100);
            assert_eq!((o1.role, o2.role), (Role::Leader, Role::Trailer), "{kind}");
            let want = match kind {
                SharingPolicyKind::Grouping => (PagePriority::High, PagePriority::Low),
                _ => (PagePriority::Normal, PagePriority::Normal),
            };
            assert_eq!((o1.priority, o2.priority), want, "{kind}");
            assert_eq!((m.page_priority(s1), m.page_priority(s2)), want, "{kind}");
        }
    }

    // ---- policy-framework pinning: the 3-scan micro-workload ----
    //
    // Two ongoing table scans on object 0 — s1 (older) at page 800,
    // s2 (newer) at page 300 — and a third scan arriving. Each policy
    // must make *its* characteristic choice, pinned here so plumbing
    // changes cannot silently alter policy behavior.

    use crate::policy::SharingPolicyKind;

    fn three_scan_setup(m: &ScanSharingManager) -> (ScanId, ScanId, SimTime) {
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t1 = SimTime::from_secs(4);
        m.update_location(s1, t1, Location::new(800, 800), 800);
        let (s2, _) = m.start_scan(table_desc(0, 10_000, 100), t1);
        let t2 = SimTime::from_secs(6);
        m.update_location(s2, t2, Location::new(300, 300), 300);
        m.update_location(s1, t2, Location::new(840, 840), 40);
        (s1, s2, t2)
    }

    #[test]
    fn attach_policy_joins_the_newest_scan() {
        let m = mgr_with_policy(1000, SharingPolicyKind::Attach);
        let (_s1, s2, t) = three_scan_setup(&m);
        let (_, d) = m.start_scan(table_desc(0, 10_000, 100), t);
        // Newest compatible scan wins, regardless of position or
        // remaining work: s2 at page 300.
        assert_eq!(
            d,
            StartDecision::JoinAt {
                location: Location::new(300, 300),
                scan: Some(s2),
                back_up_pages: 0,
            }
        );
    }

    #[test]
    fn elevator_policy_joins_the_front_most_scan() {
        let m = mgr_with_policy(1000, SharingPolicyKind::Elevator);
        let (s1, _s2, t) = three_scan_setup(&m);
        let (_, d) = m.start_scan(table_desc(0, 10_000, 100), t);
        // The cursor is the front-most ongoing scan: s1 at page 840.
        assert_eq!(
            d,
            StartDecision::JoinAt {
                location: Location::new(840, 840),
                scan: Some(s1),
                back_up_pages: 0,
            }
        );
    }

    #[test]
    fn elevator_cursor_rests_at_the_last_finished_location() {
        let m = mgr_with_policy(1000, SharingPolicyKind::Elevator);
        let (s1, _) = m.start_scan(table_desc(0, 10_000, 100), SimTime::ZERO);
        let t = SimTime::from_secs(4);
        m.update_location(s1, t, Location::new(600, 600), 600);
        m.end_scan(s1, t);
        // A new scan on the idle table resumes from the cursor — no
        // back-up, no cache-churn gating (contrast with the grouping
        // policy's leftover join, which backs up a pool's worth).
        let (_, d) = m.start_scan(table_desc(0, 10_000, 100), t);
        assert_eq!(
            d,
            StartDecision::JoinAt {
                location: Location::new(600, 600),
                scan: None,
                back_up_pages: 0,
            }
        );
    }

    #[test]
    fn attach_and_elevator_never_throttle_or_reprioritize() {
        for kind in [SharingPolicyKind::Attach, SharingPolicyKind::Elevator] {
            let m = mgr_with_policy(100, kind);
            let (s1, s2, t) = three_scan_setup(&m);
            // s1 is far ahead of s2 (extent 540 pages >> threshold 32
            // with a 100-page pool they form separate groups; force the
            // leader check by advancing s1 as a grouped leader anyway).
            let out = m.update_location(
                s1,
                t + SimDuration::from_secs(1),
                Location::new(900, 900),
                60,
            );
            assert_eq!(out.wait, SimDuration::ZERO, "{kind:?} must not throttle");
            assert_eq!(out.priority, PagePriority::Normal);
            let out2 = m.update_location(
                s2,
                t + SimDuration::from_secs(1),
                Location::new(400, 400),
                100,
            );
            assert_eq!(out2.wait, SimDuration::ZERO);
            assert_eq!(out2.priority, PagePriority::Normal);
        }
    }

    #[test]
    fn non_default_policy_announces_itself_once_in_provenance() {
        let m = mgr_with_policy(1000, SharingPolicyKind::Attach);
        let log = DecisionLog::new(64);
        m.attach_decision_log(log.clone());
        three_scan_setup(&m);
        let chosen: Vec<_> = log
            .records()
            .into_iter()
            .filter(|r| matches!(r.event, DecisionEvent::PolicyChosen { .. }))
            .collect();
        assert_eq!(chosen.len(), 1);
        assert!(matches!(
            chosen[0].event,
            DecisionEvent::PolicyChosen {
                policy: SharingPolicyKind::Attach,
                ..
            }
        ));
    }

    #[test]
    fn default_grouping_policy_stays_silent_in_provenance() {
        let m = mgr(1000);
        let log = DecisionLog::new(64);
        m.attach_decision_log(log.clone());
        three_scan_setup(&m);
        assert!(log
            .records()
            .iter()
            .all(|r| !matches!(r.event, DecisionEvent::PolicyChosen { .. })));
    }
}
