//! End-to-end tests for the features this repo adds beyond the papers'
//! core mechanisms (each justified in DESIGN.md §5b).

use scanshare_repro::core::decision::lifecycles;
use scanshare_repro::core::{DecisionEvent, Placement, QueryPriority, SharingConfig};
use scanshare_repro::engine::{
    run_workload, Access, AggSpec, CpuClass, Database, EngineConfig, Pred, Query, ScanSpec,
    SharingMode, Stream, WorkloadSpec,
};
use scanshare_repro::relstore::{ColType, Column, Schema, Value};
use scanshare_repro::storage::{ReplacementPolicy, SimDuration};
use scanshare_repro::tpch::{generate, q6, staggered_workload, throughput_workload, TpchConfig};

fn small_cfg() -> TpchConfig {
    TpchConfig {
        scale: 0.1,
        months: 36,
        block_pages: 8,
        seed: 3,
    }
}

fn li_scan(lo: i64, hi: i64, cpu: CpuClass) -> ScanSpec {
    ScanSpec {
        table: "lineitem".into(),
        access: Access::IndexRange { lo, hi },
        pred: Pred::True,
        agg: AggSpec::sums(vec![2]),
        cpu,
        require_order: false,
        query_priority: Default::default(),
        repeat: 1,
    }
}

#[test]
fn ordered_scans_never_join() {
    let cfg = small_cfg();
    let db = generate(&cfg);
    let mut spec = li_scan(0, cfg.months as i64 - 1, CpuClass::io_bound());
    spec.require_order = true;
    let q = Query::single("ordered", spec);
    let streams: Vec<Stream> = (0..3)
        .map(|i| Stream {
            queries: vec![q.clone()],
            start_offset: SimDuration::from_millis(30 * i),
        })
        .collect();
    let w = WorkloadSpec {
        streams,
        pool_pages: 128,
        engine: EngineConfig::default(),
        mode: SharingMode::ScanSharing(SharingConfig::new(0)),
        faults: Default::default(),
        slo: Default::default(),
    };
    let r = run_workload(&db, &w).unwrap();
    // The manager never even saw the scans.
    assert_eq!(r.sharing.scans_started, 0);
    assert_eq!(r.sharing.scans_joined, 0);
}

#[test]
fn always_attach_trails_full_sharing_on_mixed_speeds() {
    let cfg = small_cfg();
    let db = generate(&cfg);
    let last = cfg.months as i64 - 1;
    let streams: Vec<Stream> = (0..4)
        .map(|i| {
            let cpu = if i % 2 == 0 {
                CpuClass::io_bound()
            } else {
                CpuClass::cpu_bound()
            };
            Stream {
                queries: vec![Query::single("mix", li_scan(last - 23, last, cpu))],
                start_offset: SimDuration::from_millis(30 * i),
            }
        })
        .collect();
    let mk = |mode| WorkloadSpec {
        streams: streams.clone(),
        pool_pages: 128,
        engine: EngineConfig::default(),
        mode,
        faults: Default::default(),
        slo: Default::default(),
    };
    let base = run_workload(&db, &mk(SharingMode::Base)).unwrap();
    let attach = run_workload(
        &db,
        &mk(SharingMode::ScanSharing(SharingConfig::baseline(
            0,
            Placement::AlwaysAttach,
        ))),
    )
    .unwrap();
    let full = run_workload(&db, &mk(SharingMode::ScanSharing(SharingConfig::new(0)))).unwrap();
    assert!(attach.makespan <= base.makespan);
    assert!(
        full.makespan <= attach.makespan,
        "full {} vs attach {}",
        full.makespan,
        attach.makespan
    );
}

#[test]
fn dynamic_fairness_throttles_high_priority_queries_less() {
    // Direct manager-level check through the engine: a high-priority
    // CPU-bound leader accumulates less injected wait than the same
    // query at normal priority.
    let cfg = small_cfg();
    let db = generate(&cfg);
    let last = cfg.months as i64 - 1;
    let run = |prio: QueryPriority| {
        let mut fast = li_scan(last - 23, last, CpuClass::io_bound());
        fast.query_priority = prio;
        let slow = li_scan(last - 23, last, CpuClass::cpu_bound());
        let streams = vec![
            Stream {
                queries: vec![Query::single("fast", fast)],
                start_offset: SimDuration::ZERO,
            },
            Stream {
                queries: vec![Query::single("slow", slow)],
                start_offset: SimDuration::from_millis(10),
            },
        ];
        let w = WorkloadSpec {
            streams,
            pool_pages: 128,
            engine: EngineConfig::default(),
            mode: SharingMode::ScanSharing(SharingConfig {
                dynamic_fairness: true,
                ..SharingConfig::new(0)
            }),
            faults: Default::default(),
            slo: Default::default(),
        };
        let r = run_workload(&db, &w).unwrap();
        r.queries
            .iter()
            .find(|q| q.name == "fast")
            .unwrap()
            .throttle_wait
    };
    let normal_wait = run(QueryPriority::Normal);
    let high_wait = run(QueryPriority::High);
    assert!(
        high_wait <= normal_wait,
        "high-priority wait {high_wait} should not exceed normal {normal_wait}"
    );
}

#[test]
fn lru2_is_a_valid_baseline_mode() {
    let cfg = small_cfg();
    let db = generate(&cfg);
    let months = cfg.months as i64;
    let lru = run_workload(
        &db,
        &throughput_workload(&db, 2, months, 3, SharingMode::Base),
    )
    .unwrap();
    let lru2 = run_workload(
        &db,
        &throughput_workload(
            &db,
            2,
            months,
            3,
            SharingMode::BasePolicy(ReplacementPolicy::Lru2),
        ),
    )
    .unwrap();
    // Same answers; similar I/O (no coordination either way).
    assert_eq!(lru.queries.len(), lru2.queries.len());
    let ratio = lru2.disk.pages_read as f64 / lru.disk.pages_read as f64;
    assert!((0.8..1.2).contains(&ratio), "LRU-2 ratio {ratio}");
}

#[test]
fn prefetch_keeps_answers_and_reduces_makespan() {
    let cfg = small_cfg();
    let db = generate(&cfg);
    let q = q6(cfg.months as i64, 4);
    let spec = staggered_workload(&db, &q, 2, SimDuration::from_millis(40), SharingMode::Base);
    let plain = run_workload(&db, &spec).unwrap();
    let pre = run_workload(
        &db,
        &WorkloadSpec {
            engine: EngineConfig {
                prefetch_extents: 1,
                ..EngineConfig::default()
            },
            ..spec.clone()
        },
    )
    .unwrap();
    assert_eq!(plain.queries[0].result.count, pre.queries[0].result.count);
    assert!(pre.makespan <= plain.makespan);
}

#[test]
fn disk_array_speeds_runs_up_without_changing_answers() {
    let cfg = small_cfg();
    let db = generate(&cfg);
    let months = cfg.months as i64;
    let one = run_workload(
        &db,
        &throughput_workload(&db, 3, months, 5, SharingMode::Base),
    )
    .unwrap();
    let spec4 = WorkloadSpec {
        engine: EngineConfig {
            n_disks: 4,
            ..EngineConfig::default()
        },
        ..throughput_workload(&db, 3, months, 5, SharingMode::Base)
    };
    let four = run_workload(&db, &spec4).unwrap();
    assert!(four.makespan < one.makespan);
    // Physical reads stay in the same ballpark (timing shifts reshuffle
    // pool hits slightly across interleavings).
    let ratio = four.disk.pages_read as f64 / one.disk.pages_read as f64;
    assert!((0.9..1.1).contains(&ratio), "read ratio {ratio}");
    let a: u64 = one.queries.iter().map(|q| q.result.count).sum();
    let b: u64 = four.queries.iter().map(|q| q.result.count).sum();
    assert_eq!(a, b);
}

#[test]
fn optimal_strategy_runs_end_to_end() {
    let cfg = small_cfg();
    let db = generate(&cfg);
    let months = cfg.months as i64;
    let r = run_workload(
        &db,
        &throughput_workload(
            &db,
            3,
            months,
            5,
            SharingMode::ScanSharing(SharingConfig {
                placement: Placement::Optimal,
                ..SharingConfig::new(0)
            }),
        ),
    )
    .unwrap();
    let base = run_workload(
        &db,
        &throughput_workload(&db, 3, months, 5, SharingMode::Base),
    )
    .unwrap();
    assert!(r.makespan < base.makespan);
}

#[test]
fn rid_scans_share_end_to_end() {
    let mut db = Database::new(16);
    let schema = Schema::new(vec![
        Column::new("key", ColType::Int32),
        Column::new("v", ColType::Float64),
    ]);
    // Correlated-but-unclustered: key order with per-1024-row scrambling.
    db.create_heap_table_with_index(
        "events",
        schema,
        0,
        (0..100_000u64).map(|i| {
            let scrambled = (i / 1024) * 1024 + ((i * 37) % 1024);
            vec![Value::I32((scrambled / 100) as i32), Value::F64(1.0)]
        }),
    )
    .unwrap();
    let q = Query::single(
        "rid",
        ScanSpec {
            table: "events".into(),
            access: Access::RidRange { lo: 100, hi: 800 },
            pred: Pred::True,
            agg: AggSpec::sums(vec![1]),
            cpu: CpuClass::io_bound(),
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        },
    );
    let streams: Vec<Stream> = (0..3)
        .map(|i| Stream {
            queries: vec![q.clone()],
            start_offset: SimDuration::from_millis(15 * i),
        })
        .collect();
    let mk = |mode| WorkloadSpec {
        streams: streams.clone(),
        pool_pages: 64,
        engine: EngineConfig::default(),
        mode,
        faults: Default::default(),
        slo: Default::default(),
    };
    let base = run_workload(&db, &mk(SharingMode::Base)).unwrap();
    let ss = run_workload(&db, &mk(SharingMode::ScanSharing(SharingConfig::new(0)))).unwrap();
    assert_eq!(base.queries[0].result.count, ss.queries[0].result.count);
    assert!(
        ss.disk.pages_read < base.disk.pages_read,
        "ss {} base {}",
        ss.disk.pages_read,
        base.disk.pages_read
    );
}

#[test]
fn trace_records_the_whole_lifecycle() {
    let cfg = small_cfg();
    let db = generate(&cfg);
    let q = q6(cfg.months as i64, 4);
    let spec = staggered_workload(
        &db,
        &q,
        3,
        SimDuration::from_millis(20),
        SharingMode::ScanSharing(SharingConfig::new(0)),
    );
    let report = run_workload(&db, &spec).unwrap();
    let spans = lifecycles(&report.decisions);
    let starts = spans.iter().filter(|s| s.query.is_some()).count();
    let finishes = spans.iter().filter(|s| s.finish.is_some()).count();
    assert_eq!(starts, 3);
    assert_eq!(finishes, 3);
    // The lifecycle events' timestamps are monotone and within the run.
    let times: Vec<_> = report
        .decisions
        .iter()
        .filter(|d| {
            matches!(
                d.event,
                DecisionEvent::ScanStarted { .. }
                    | DecisionEvent::ScanWrapped { .. }
                    | DecisionEvent::Throttle { .. }
                    | DecisionEvent::ScanEnded { .. }
            )
        })
        .map(|d| d.at)
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    let end = *times.last().unwrap();
    assert!(end.since(scanshare_repro::storage::SimTime::ZERO) <= report.makespan);
}
