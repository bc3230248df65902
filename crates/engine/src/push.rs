//! Push-based shared-scan delivery: one pool fix per page per group.
//!
//! In pull mode every scan of a cohort steps its own cursor and fixes
//! its own pages — N scans over the same table cost ≈ N pool fixes per
//! shared page, and the sharing manager spends its effort keeping the
//! cursors close enough that those fixes are hits. Push mode removes
//! the N cursors altogether: per (table, range) cohort a single *group
//! driver* — one `Cursor` with a list of `Consumer`s — runs
//! `step_extent`, which fetches, fixes and unpins each extent exactly
//! once and runs each distinct row pipeline among the members once over
//! the fixed pages, for all the members that share it, before release.
//! The step itself is the one a pull scan runs with a single
//! consumer; what this module adds is what is genuinely push: admission
//! (found a driver or attach to one), parking, catch-up, handoff, and
//! the run's [`PushSummary`].
//!
//! The driver is not a task of its own: the event loop stays one event
//! per stream, and the events of the *owner* — the head of the member
//! list — advance the shared cursor. Riders park on the driver's next
//! wake-up and pay only their CPU share. A late joiner replays the
//! prefix it missed through a private, unmanaged cursor
//! (`Plan::prefix`) driven by its own stream events, concurrently with
//! riding the ongoing lap — push's analogue of the pull executor's wrap
//! phase.
//!
//! Throttling throttles the *driver*: every member reports each extent's
//! location (so groups, roles and provenance stay meaningful), but only
//! the owner's returned wait and release priority are applied — there
//! is no leader-trailer drift to arbitrate inside a cohort, because
//! there is only one cursor.
//!
//! Fault handling is the step's: whoever owns the faulting cursor is
//! evicted with a partial answer. When that cursor is a driver's, the
//! head of the member list is dropped and the next member inherits the
//! cursor — recorded as a [`scanshare::DecisionEvent::DriverHandoff`] —
//! so the cohort keeps its single-fix property across the failure. A
//! fault on a private catch-up cursor evicts only that consumer.

use std::collections::HashMap;

use scanshare::{ObjectId, ScanId, ScanKind};
use scanshare_storage::{SimDuration, SimTime};

use crate::db::Database;
use crate::error::EngineResult;
use crate::exec::ExecWorld;
use crate::metrics::PushSummary;
use crate::query::{Access, QueryResult, ScanSpec};
use crate::scan_exec::{
    plan_scan, shareable, step_extent, Consumer, Cursor, PlannedScan, ScanMetrics, Step,
    StepScratch,
};

/// Handle of one admitted push consumer (index into the engine's
/// registry). Handed back to the stream task in place of a pull
/// [`crate::scan_exec::ScanExec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsumerId(usize);

/// Identity of a shareable page stream: same object, access kind and
/// key range ⇒ same stream of extents. Like pull-mode grouping, one key
/// may have several live drivers (the policy can refuse late attaches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DriverKey {
    object: u64,
    kind: u8,
    start_key: i64,
    end_key: i64,
}

/// One shared cursor and the cohort it feeds.
#[derive(Debug)]
struct GroupDriver {
    cursor: Cursor,
    object: ObjectId,
    /// The consumers the cursor delivers to, in attach order. The head
    /// is the owner: its stream events step the cursor.
    members: Vec<usize>,
    /// When the cursor next advances — what parked riders wait on.
    next_wake: SimTime,
    /// The lap is over (or the cohort died out); consumers finalize at
    /// their next event.
    done: bool,
}

/// Where an admitted consumer sits: its driver, and its catch-up state.
struct Seat {
    driver: usize,
    /// Private cursor over the prefix missed before attaching. Boxed:
    /// most consumers never have one, and seats are never freed.
    catchup: Option<Box<Cursor>>,
}

/// The per-run push-delivery engine: driver registry, consumer registry
/// and the run-level [`PushSummary`] counters. Owned by the workload
/// driver; one instance serves every stream of the run.
#[derive(Default)]
pub struct PushEngine {
    drivers: Vec<GroupDriver>,
    consumers: Vec<Consumer>,
    /// Parallel to `consumers`.
    seats: Vec<Seat>,
    by_key: HashMap<DriverKey, Vec<usize>>,
    summary: PushSummary,
    /// Step buffers lent to whichever cursor steps (drivers and catch-up
    /// cursors never step concurrently within one call).
    scratch: StepScratch,
}

impl PushEngine {
    /// An engine with no drivers yet.
    pub fn new() -> PushEngine {
        PushEngine::default()
    }

    /// Run-level counters so far (stamped into the report at the end).
    pub fn summary(&self) -> PushSummary {
        self.summary.clone()
    }

    /// The manager id of an admitted consumer, while it is registered.
    pub fn scan_id(&self, id: ConsumerId) -> Option<ScanId> {
        self.consumers[id.0].scan
    }

    /// The finished consumer's answer and measurements.
    pub fn take_result(&mut self, id: ConsumerId) -> (QueryResult, ScanMetrics) {
        let c = &mut self.consumers[id.0];
        (c.result(), std::mem::take(&mut c.metrics))
    }

    /// Try to admit `spec` into push delivery at time `now`. Returns
    /// `None` for RID fetches, order-requiring scans and kinds excluded
    /// by the scope toggles, in which case the caller falls back to a
    /// pull [`crate::scan_exec::ScanExec`]. RID fetches pull because a
    /// driver serves one exact `(object, kind, lo, hi)` and placement is
    /// not consulted (below): overlapping but unequal RID ranges would
    /// each found a driver and share only what the pool happens to hold,
    /// where pull placement can start a later scan at an earlier one's
    /// location. Pushing them needs overlap-aware attach first.
    ///
    /// Placement is *not* consulted: attaching to a driver replaces the
    /// start-location decision (the driver's cursor is the location).
    /// The policy still arbitrates via
    /// [`scanshare::ScanSharingManager::attach_push`]: a joiner that
    /// missed too much of the ongoing lap founds a second driver
    /// instead, exactly like pull mode's multiple groups per table.
    pub fn admit(
        &mut self,
        db: &Database,
        world: &mut ExecWorld<'_>,
        spec: &ScanSpec,
        now: SimTime,
    ) -> EngineResult<Option<ConsumerId>> {
        let Some(mgr) = &world.mgr else {
            return Ok(None);
        };
        let kind = match spec.access {
            Access::FullTable => ScanKind::Table,
            Access::IndexRange { .. } => ScanKind::Index,
            Access::RidRange { .. } => return Ok(None),
        };
        if !shareable(&world.cfg, spec, kind) {
            return Ok(None);
        }
        let PlannedScan {
            file,
            schema,
            plan,
            desc,
        } = plan_scan(db, world, spec)?;
        // Before the manager hears of the scan: a spec that does not fit
        // the table must not leave a registration behind.
        let mut consumer = Consumer::new(spec, &schema, now)?;
        let key = DriverKey {
            object: desc.object.0,
            kind: match kind {
                ScanKind::Table => 0,
                ScanKind::Index => 1,
            },
            start_key: desc.start_key,
            end_key: desc.end_key,
        };
        let object = desc.object;
        let (scan, _placement) = mgr.start_scan(desc, now);
        consumer.scan = Some(scan);

        // First live driver on this stream the policy lets us attach to;
        // otherwise found another one.
        let cid = self.consumers.len();
        let mut joined = None;
        for &di in self.by_key.get(&key).into_iter().flatten() {
            let drv = &self.drivers[di];
            if drv.done {
                continue;
            }
            let missed = drv.cursor.plan.visited_pages();
            if mgr.attach_push(missed, drv.cursor.plan.total_pages()) {
                joined = Some((di, missed));
                break;
            }
        }
        let seat = match joined {
            Some((di, missed)) => {
                let drv = &mut self.drivers[di];
                let owner_scan = self.consumers[drv.members[0]]
                    .scan
                    .expect("a live driver's owner is registered");
                drv.members.push(cid);
                self.summary.attaches += 1;
                mgr.note_driver_attach(scan, owner_scan, object, now, missed, drv.members.len());
                Seat {
                    driver: di,
                    catchup: (missed > 0)
                        .then(|| Box::new(Cursor::new(file, drv.cursor.plan.prefix()))),
                }
            }
            None => {
                let di = self.drivers.len();
                self.drivers.push(GroupDriver {
                    cursor: Cursor::new(file, plan),
                    object,
                    members: vec![cid],
                    next_wake: now,
                    done: false,
                });
                self.by_key.entry(key).or_default().push(di);
                self.summary.drivers += 1;
                mgr.note_driver_attach(scan, scan, object, now, 0, 1);
                Seat {
                    driver: di,
                    catchup: None,
                }
            }
        };
        self.seats.push(seat);
        self.consumers.push(consumer);
        Ok(Some(ConsumerId(cid)))
    }

    /// Advance consumer `id` by one event. Mirrors
    /// [`crate::scan_exec::ScanExec::step`]'s contract: the time of the
    /// consumer's next event, or `None` once it has finished (the
    /// manager is deregistered at that point and
    /// [`PushEngine::take_result`] yields the answer).
    pub fn step_consumer(
        &mut self,
        world: &mut ExecWorld<'_>,
        id: ConsumerId,
        now: SimTime,
    ) -> EngineResult<Option<SimTime>> {
        let ci = id.0;
        if self.consumers[ci].aborted {
            return Ok(None);
        }
        let di = self.seats[ci].driver;
        let drv = &self.drivers[di];
        if !drv.done && drv.members[0] == ci {
            return self.step_driver(world, di, now);
        }
        // Catch-up first: the missed prefix replays while the lap goes
        // on (the owner interleaves its catch-up after the lap is done).
        if self.seats[ci].catchup.is_some() {
            return self.step_catchup(world, ci, now);
        }
        let c = &mut self.consumers[ci];
        if drv.done && now >= c.ready_at {
            c.end(world, now);
            return Ok(None);
        }
        // Parked: wake when the cursor next moves or our CPU share of
        // the last extent completes, whichever is later. The +1µs floor
        // guarantees forward progress on ties (heap order breaks the
        // tie by sequence, and the driver may advance at exactly
        // `next_wake`).
        let wake = drv
            .next_wake
            .max(c.ready_at)
            .max(now + SimDuration::from_micros(1));
        Ok(Some(wake))
    }

    /// One extent of the shared cursor, driven by the owner's event.
    fn step_driver(
        &mut self,
        world: &mut ExecWorld<'_>,
        di: usize,
        now: SimTime,
    ) -> EngineResult<Option<SimTime>> {
        let drv = &mut self.drivers[di];
        if drv.cursor.plan.done() {
            // Lap over: riders finalize at their next wake; an owner that
            // attached late and inherited the cursor in a handoff still
            // has its own catch-up to replay before ending.
            drv.done = true;
            let owner = drv.members[0];
            return self.step_consumer(world, ConsumerId(owner), now);
        }
        let stepped = step_extent(
            world,
            now,
            &mut drv.cursor,
            &mut self.scratch,
            &mut self.consumers,
            &drv.members,
            true,
        )?;
        match stepped {
            Step::Delivered { next, pages, .. } => {
                self.summary.extents_delivered += 1;
                self.summary.pages_delivered += pages;
                self.summary.consumer_pages += pages * drv.members.len() as u64;
                drv.done = drv.cursor.plan.done();
                drv.next_wake = next;
                Ok(Some(next))
            }
            Step::Faulted(evicted) => {
                self.hand_off(world, di, now, evicted);
                Ok(None)
            }
        }
    }

    /// One extent of a private catch-up cursor: the same step, unmanaged.
    fn step_catchup(
        &mut self,
        world: &mut ExecWorld<'_>,
        ci: usize,
        now: SimTime,
    ) -> EngineResult<Option<SimTime>> {
        // The consumer cannot absorb catch-up work before its share of
        // the last delivered extent is processed.
        let ready = self.consumers[ci].ready_at;
        if now < ready {
            return Ok(Some(ready));
        }
        let seat = &mut self.seats[ci];
        let cursor = seat.catchup.as_mut().expect("catch-up cursor");
        if cursor.plan.done() {
            seat.catchup = None;
            return self.step_consumer(world, ConsumerId(ci), now);
        }
        let stepped = step_extent(
            world,
            now,
            cursor,
            &mut self.scratch,
            &mut self.consumers,
            &[ci],
            false,
        )?;
        match stepped {
            Step::Delivered { next, pages, .. } => {
                self.summary.catchup_pages += pages;
                Ok(Some(next))
            }
            // Only this consumer is gone; the driver and the other
            // riders are untouched.
            Step::Faulted(_) => {
                seat.catchup = None;
                self.drivers[seat.driver].members.retain(|&c| c != ci);
                Ok(None)
            }
        }
    }

    /// The shared cursor's read died for good and took the owner with it
    /// (evicted by the step as `evicted`). Drop the head of the member
    /// list: the next member inherits the cursor so the cohort keeps
    /// going; with no survivors the driver ends.
    fn hand_off(
        &mut self,
        world: &ExecWorld<'_>,
        di: usize,
        now: SimTime,
        evicted: Option<ScanId>,
    ) {
        let drv = &mut self.drivers[di];
        drv.members.remove(0);
        let Some(&heir) = drv.members.first() else {
            drv.done = true;
            return;
        };
        self.summary.handoffs += 1;
        let plan = &drv.cursor.plan;
        let remaining = plan.total_pages() - plan.visited_pages();
        if let (Some(mgr), Some(heir), Some(evicted)) =
            (&world.mgr, self.consumers[heir].scan, evicted)
        {
            mgr.note_driver_handoff(heir, evicted, drv.object, now, remaining, drv.members.len());
        }
        // The heir retries the extent at its next parked event.
        drv.next_wake = now + SimDuration::from_micros(1);
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use scanshare::{DecisionEvent, DecisionLog, DeliveryMode, ScanSharingManager, SharingConfig};
    use scanshare_relstore::{ColType, Column, Schema, Value};
    use scanshare_storage::{
        BufferPool, FaultKind, FaultPlan, FaultRule, PoolConfig, ReplacementPolicy,
    };

    use super::*;
    use crate::cost::{CpuClass, EngineConfig};
    use crate::faults::FaultsConfig;
    use crate::query::{AggSpec, Pred};

    const POOL_PAGES: usize = 64;

    fn build_db() -> Database {
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("amount", ColType::Float64),
        ]);
        db.create_mdc_table(
            "lineitem",
            schema,
            16,
            (0..120_000).map(|i| ((i % 12) as i64, vec![Value::I32(i % 12), Value::F64(1.0)])),
        )
        .unwrap();
        db
    }

    fn world(db: &Database) -> ExecWorld<'_> {
        let mut cfg = SharingConfig::new(POOL_PAGES as u64);
        cfg.delivery = DeliveryMode::Push;
        let mgr = ScanSharingManager::new(cfg);
        mgr.attach_decision_log(DecisionLog::new(1 << 12));
        let pool = BufferPool::new(PoolConfig::new(POOL_PAGES, ReplacementPolicy::PriorityLru));
        ExecWorld::new(db.store(), pool, EngineConfig::default(), Some(mgr))
    }

    fn full_range(cpu: CpuClass) -> ScanSpec {
        ScanSpec {
            table: "lineitem".into(),
            access: Access::IndexRange { lo: 0, hi: 11 },
            pred: Pred::True,
            agg: AggSpec::sums(vec![1]),
            cpu,
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        }
    }

    /// What [`drive`] saw of one consumer.
    struct Seen {
        scan: ScanId,
        /// The virtual time of each of its events.
        events: Vec<SimTime>,
        result: QueryResult,
    }

    /// Run `cohort` — `(spec, start µs)` per consumer — to completion
    /// the way the workload loop does: one pending event per consumer,
    /// earliest first, ties in push order.
    fn drive(
        db: &Database,
        world: &mut ExecWorld<'_>,
        cohort: &[(ScanSpec, u64)],
    ) -> (PushEngine, Vec<Seen>) {
        let mut pe = PushEngine::new();
        let mut ids: Vec<Option<ConsumerId>> = vec![None; cohort.len()];
        let mut seen: Vec<Seen> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = cohort
            .iter()
            .enumerate()
            .map(|(i, (_, start_us))| Reverse((*start_us, i, i)))
            .collect();
        let mut seq = cohort.len();
        while let Some(Reverse((t_us, _, i))) = heap.pop() {
            let now = SimTime::from_micros(t_us);
            let id = *ids[i].get_or_insert_with(|| {
                let id = pe
                    .admit(db, world, &cohort[i].0, now)
                    .expect("plans")
                    .expect("push-shareable");
                seen.push(Seen {
                    scan: pe.scan_id(id).expect("just registered"),
                    events: Vec::new(),
                    result: QueryResult::default(),
                });
                id
            });
            seen[i].events.push(now);
            match pe.step_consumer(world, id, now).expect("no hard error") {
                Some(next) => {
                    heap.push(Reverse((next.as_micros(), seq, i)));
                    seq += 1;
                }
                None => seen[i].result = pe.take_result(id).0,
            }
        }
        (pe, seen)
    }

    #[test]
    fn owner_fault_hands_the_cursor_to_the_oldest_rider() {
        let db = build_db();
        // A fast founder and two slower riders, attached within the
        // founder's first extent.
        let cohort = [
            (full_range(CpuClass::io_bound()), 0),
            (full_range(CpuClass::cpu_bound()), 1_000),
            (full_range(CpuClass::balanced()), 2_000),
        ];
        // Fault-free reference; it also times the founder's steps.
        let mut clean_world = world(&db);
        let (clean_pe, clean) = drive(&db, &mut clean_world, &cohort);
        assert_eq!(clean_pe.summary().drivers, 1);
        assert_eq!(clean_pe.summary().attaches, 2);
        assert_eq!(clean_pe.summary().handoffs, 0);
        assert_eq!(clean[0].result.count, 120_000);

        // Kill the disk for the one microsecond in which the founder
        // issues its sixth read. The heir retries 1µs later and passes.
        let at = clean[0].events[5].as_micros();
        let mut w = world(&db);
        w.enable_faults(&FaultsConfig {
            plan: FaultPlan {
                seed: 0,
                rules: vec![FaultRule {
                    device: None,
                    pages: None,
                    from_us: at,
                    until_us: Some(at + 1),
                    fault: FaultKind::PermanentError,
                }],
            },
            ..FaultsConfig::default()
        });
        let (pe, seen) = drive(&db, &mut w, &cohort);

        let summary = pe.summary();
        assert_eq!(summary.handoffs, 1, "{summary:?}");
        assert_eq!(
            summary.drivers, 1,
            "the cohort kept its cursor: {summary:?}"
        );
        let faults = w.fault_summary();
        assert_eq!(faults.permanent_errors, 1, "{faults:?}");
        assert_eq!(faults.scans_aborted, 1, "{faults:?}");
        // The evicted founder stopped where the fault hit; the cursor
        // did not move, so the survivors still saw every page.
        assert_eq!(seen[0].events.len(), 6);
        assert!(
            seen[0].result.count > 0 && seen[0].result.count < clean[0].result.count,
            "founder's answer must be partial: {:?}",
            seen[0].result
        );
        for i in [1, 2] {
            assert_eq!(seen[i].result, clean[i].result, "survivor {i}");
        }
        // Provenance names the heir (the oldest rider) and the evicted
        // owner, and the eviction carries pull's reason format.
        let mgr = w.mgr.as_ref().expect("sharing world");
        let decisions = mgr.decisions();
        let handoff = decisions
            .iter()
            .find_map(|d| match d.event {
                DecisionEvent::DriverHandoff {
                    scan,
                    from,
                    consumers,
                    ..
                } => Some((d.at, scan, from, consumers)),
                _ => None,
            })
            .expect("handoff narrated");
        assert_eq!(
            handoff,
            (SimTime::from_micros(at), seen[1].scan, seen[0].scan, 2)
        );
        assert!(decisions.iter().any(|d| matches!(
            &d.event,
            DecisionEvent::ScanEvicted { scan, reason, .. }
                if *scan == seen[0].scan && reason.contains("permanent read fault")
        )));
        // Everyone is deregistered and nothing is left pinned — neither
        // by the failed fetch nor by the retried one.
        assert_eq!(mgr.probe().scans.len(), 0);
        let resident = w.pool.resident_pages();
        assert!(!resident.is_empty());
        assert!(resident.iter().all(|p| !p.pinned), "a pin leaked");
    }

    /// A filter scan, a `Pred::True` scan and a second filter scan ride
    /// one driver of a world with a memo: two pipelines per extent, and
    /// the filter scans' pages are folded once for both of them. The
    /// answers are the ones the first commit of page subtotals computed,
    /// bit for bit.
    #[test]
    fn mixed_pipelines_ride_one_driver_folding_each_page_once() {
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("amount", ColType::Float64),
            Column::new("qty", ColType::Float64),
        ]);
        db.create_mdc_table(
            "lineitem",
            schema,
            16,
            (0..60_000).map(|i| {
                let amount = ((i as f64).sqrt() * 0.37 - 20.0) * 10f64.powi(i % 7 - 3);
                let qty = ((i * 7919) % 50) as f64 + 0.1;
                (
                    (i % 12) as i64,
                    vec![Value::I32(i % 12), Value::F64(amount), Value::F64(qty)],
                )
            }),
        )
        .unwrap();
        let filter = ScanSpec {
            pred: Pred::And(
                Box::new(Pred::F64LessThan(2, 24.0)),
                Box::new(Pred::F64LessThan(1, 60.0)),
            ),
            ..full_range(CpuClass::cpu_bound())
        };
        let plain = ScanSpec {
            agg: AggSpec::sums(vec![1, 2]),
            ..full_range(CpuClass::io_bound())
        };
        // The CPU class is no part of a pipeline: the two filter scans
        // differ in it and share one pipeline all the same.
        let founder = ScanSpec {
            cpu: CpuClass::io_bound(),
            ..filter.clone()
        };
        let cohort = [(founder, 0), (plain, 1_000), (filter, 12_000)];
        let mut w = world(&db);
        w.memo = Some(crate::scan_exec::PageMemo::default());
        let folds = crate::scan_exec::page_folds();
        let (pe, seen) = drive(&db, &mut w, &cohort);
        assert_eq!((pe.summary().drivers, pe.summary().attaches), (1, 2));
        // Each page of the table is folded once for each of the two
        // pipelines: the filter scans share every fold, replays included.
        let folds = crate::scan_exec::page_folds() - folds;
        assert_eq!(folds, 2 * pe.summary().pages_delivered);
        let got: Vec<(u64, Vec<u64>)> = seen
            .iter()
            .map(|s| {
                let sums = s.result.sums.iter().map(|x| x.to_bits()).collect();
                (s.result.count, sums)
            })
            .collect();
        let filtered = (16_302, vec![13921842660361425012]);
        let all = (60_000, vec![4735238167256630306, 4699090183448952888]);
        assert_eq!(got, [filtered.clone(), all, filtered]);
        assert_eq!(pe.summary().catchup_pages, 32, "both replayed an extent");
    }
}
