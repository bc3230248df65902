//! Property-style round-trip tests for the run's event log, the core
//! `DecisionLog`, through the one encoding it is saved in: a run
//! report's `decisions`. Random records of every lifecycle and decision
//! kind are generated with the repo's deterministic PRNG, put into a
//! report, saved and loaded as the report's JSON, and compared —
//! including the capped case, where the `dropped` count must account for
//! every eviction.

use std::collections::HashSet;
use std::mem::discriminant;

use scanshare::anchor::AnchorId;
use scanshare::{
    DecisionEvent, DecisionLog, DecisionRecord, Location, ObjectId, PagePriority,
    PlacementCandidate, Role, ScanId,
};
use scanshare_engine::query::{Access, AggSpec, Pred, Query, ScanSpec};
use scanshare_engine::{
    run_workload, CpuClass, Database, EngineConfig, RunReport, SharingMode, Stream, WorkloadSpec,
};
use scanshare_prng::Rng;
use scanshare_relstore::{ColType, Column, Schema, Value};
use scanshare_storage::{SimDuration, SimTime};

/// The report of a small base run: the carrier the records ride in.
fn carrier() -> RunReport {
    let mut db = Database::new(16);
    let schema = Schema::new(vec![
        Column::new("month", ColType::Int32),
        Column::new("amount", ColType::Float64),
    ]);
    let rows = (0..2_000).map(|i| ((i % 4) as i64, vec![Value::I32(i % 4), Value::F64(1.0)]));
    db.create_mdc_table("lineitem", schema, 8, rows).unwrap();
    let q = Query::single(
        "sum",
        ScanSpec {
            table: "lineitem".into(),
            access: Access::FullTable,
            pred: Pred::True,
            agg: AggSpec::sums(vec![1]),
            cpu: CpuClass::io_bound(),
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        },
    );
    let spec = WorkloadSpec {
        streams: vec![Stream {
            queries: vec![q],
            start_offset: SimDuration::ZERO,
        }],
        pool_pages: 64,
        engine: EngineConfig::default(),
        mode: SharingMode::Base,
        faults: Default::default(),
        slo: Default::default(),
    };
    run_workload(&db, &spec).unwrap()
}

/// `records` after a trip through a saved report's JSON.
fn through_a_report(carrier: &mut RunReport, records: &[DecisionRecord]) -> Vec<DecisionRecord> {
    carrier.decisions = records.to_vec();
    let json = serde_json::to_string_pretty(carrier).unwrap();
    serde_json::from_str::<RunReport>(&json).unwrap().decisions
}

fn random_candidate(rng: &mut Rng) -> PlacementCandidate {
    PlacementCandidate {
        scan: if rng.bounded_u64(4) == 0 {
            None
        } else {
            Some(ScanId(rng.bounded_u64(100)))
        },
        location: Location::new(rng.bounded_u64(10_000) as i64, rng.bounded_u64(10_000)),
        saving_pages: (rng.bounded_u64(4_000) as f64) / 4.0,
        score: (rng.bounded_u64(1_000) as f64) / 1_000.0,
        speed: (rng.bounded_u64(100_000) as f64) / 10.0,
    }
}

/// How many event kinds [`random_decision_event`] draws from.
const KINDS: usize = 10;

fn random_decision_event(rng: &mut Rng) -> DecisionEvent {
    let scan = ScanId(rng.bounded_u64(100));
    let roles = [Role::Leader, Role::Middle, Role::Trailer, Role::Singleton];
    let prios = [PagePriority::Low, PagePriority::Normal, PagePriority::High];
    match rng.bounded_u64(KINDS as u64) {
        0 => DecisionEvent::GroupStart {
            scan,
            object: ObjectId(rng.bounded_u64(16)),
            candidates: (0..rng.bounded_u64(4))
                .map(|_| random_candidate(rng))
                .collect(),
            threshold_pages: rng.bounded_u64(64) as f64,
        },
        1 => DecisionEvent::GroupJoin {
            scan,
            object: ObjectId(rng.bounded_u64(16)),
            joined: if rng.bounded_u64(3) == 0 {
                None
            } else {
                Some(ScanId(rng.bounded_u64(100)))
            },
            location: Location::new(rng.bounded_u64(10_000) as i64, rng.bounded_u64(10_000)),
            back_up_pages: rng.bounded_u64(256),
            candidates: (1..=rng.bounded_u64(3) + 1)
                .map(|_| random_candidate(rng))
                .collect(),
            threshold_pages: rng.bounded_u64(64) as f64,
        },
        2 => DecisionEvent::Throttle {
            scan,
            group: AnchorId(rng.bounded_u64(8)),
            distance_pages: rng.bounded_u64(1_000),
            threshold_pages: 32,
            wait: SimDuration::from_micros(rng.bounded_u64(500_000)),
            accumulated_slowdown: SimDuration::from_micros(rng.bounded_u64(5_000_000)),
            slowdown_budget: SimDuration::from_micros(rng.bounded_u64(50_000_000) + 1),
            fairness_cap: 0.8,
            trailer: ScanId(rng.bounded_u64(100)),
            trailer_speed: (rng.bounded_u64(100_000) as f64) / 10.0,
        },
        3 => DecisionEvent::Unthrottle {
            scan,
            group: AnchorId(rng.bounded_u64(8)),
            distance_pages: rng.bounded_u64(32),
            threshold_pages: 32,
        },
        4 => DecisionEvent::SlowdownCapHit {
            scan,
            accumulated_slowdown: SimDuration::from_micros(rng.bounded_u64(5_000_000)),
            slowdown_budget: SimDuration::from_micros(rng.bounded_u64(5_000_000)),
            fairness_cap: 0.8,
        },
        5 => DecisionEvent::RoleChange {
            scan,
            group: AnchorId(rng.bounded_u64(8)),
            from: roles[rng.bounded_u64(4) as usize],
            to: roles[rng.bounded_u64(4) as usize],
            group_extent: rng.bounded_u64(2_000),
            members: rng.bounded_u64(6) as usize + 1,
        },
        6 => DecisionEvent::PageReprioritize {
            scan,
            role: roles[rng.bounded_u64(4) as usize],
            from: prios[rng.bounded_u64(3) as usize],
            to: prios[rng.bounded_u64(3) as usize],
        },
        7 => DecisionEvent::ScanStarted {
            scan,
            query: format!("Q{}", rng.bounded_u64(22) + 1),
            stream: rng.bounded_u64(8) as usize,
        },
        8 => DecisionEvent::ScanWrapped { scan },
        _ => DecisionEvent::ScanEnded { scan },
    }
}

#[test]
fn random_records_round_trip_through_a_report() {
    let mut carrier = carrier();
    let mut rng = Rng::seed_from_u64(0xDECADE);
    let mut kinds = HashSet::new();
    for trial in 0..20 {
        let n = rng.bounded_u64(60) as usize + 1;
        let records: Vec<DecisionRecord> = (0..n)
            .map(|i| DecisionRecord {
                at: SimTime::from_micros(i as u64 * 1_000 + rng.bounded_u64(999)),
                event: random_decision_event(&mut rng),
            })
            .collect();
        let back = through_a_report(&mut carrier, &records);
        assert_eq!(back, records, "trial {trial} lost data in the round trip");
        kinds.extend(records.iter().map(|r| discriminant(&r.event)));
    }
    assert_eq!(
        kinds.len(),
        KINDS,
        "the generator's every kind round-tripped"
    );
}

#[test]
fn capped_decision_log_drops_oldest_and_survivors_round_trip() {
    let mut carrier = carrier();
    let mut rng = Rng::seed_from_u64(99);
    let mut kinds = HashSet::new();
    for trial in 0..10 {
        let cap = rng.bounded_u64(20) as usize + 1;
        let total = cap + rng.bounded_u64(50) as usize;
        let mut log = DecisionLog::new(cap);
        let mut all = Vec::new();
        for i in 0..total {
            let ev = random_decision_event(&mut rng);
            log.record(SimTime::from_micros(i as u64), ev.clone());
            all.push(ev);
        }
        let retained = log.since(&mut 0);
        assert_eq!(
            log.dropped() as usize + retained.len(),
            total,
            "trial {trial}: dropped + retained != recorded"
        );
        assert_eq!(retained.len(), cap.min(total));
        for (r, ev) in retained.iter().zip(&all[total - retained.len()..]) {
            assert_eq!(&r.event, ev);
        }
        assert_eq!(through_a_report(&mut carrier, &retained), retained);
        kinds.extend(retained.iter().map(|r| discriminant(&r.event)));
    }
    assert_eq!(
        kinds.len(),
        KINDS,
        "the generator's every kind was retained"
    );
}
