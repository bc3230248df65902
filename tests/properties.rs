//! Randomized-but-deterministic property tests over the public API:
//! workloads and data structures generated from a seeded in-repo PRNG
//! must uphold the system's core invariants. (Formerly proptest-based;
//! rewritten against `scanshare-prng` so the suite is hermetic.)

use scanshare_prng::Rng;
use scanshare_repro::core::SharingConfig;
use scanshare_repro::engine::{
    run_workload, Access, AggSpec, CpuClass, Database, EngineConfig, Pred, Query, ScanSpec,
    SharingMode, Stream, WorkloadSpec,
};
use scanshare_repro::relstore::{BTree, ColType, Column, Entry, Schema, Value};
use scanshare_repro::storage::{
    BufferPool, FileStore, PagePriority, PoolConfig, ReplacementPolicy, SimDuration,
};

/// Build a small MDC database with `cells` clustering cells.
fn small_db(cells: i64, rows: u64) -> Database {
    let mut db = Database::new(8);
    let schema = Schema::new(vec![
        Column::new("cell", ColType::Int32),
        Column::new("v", ColType::Float64),
    ]);
    db.create_mdc_table(
        "t",
        schema,
        4,
        (0..rows).map(move |i| {
            let c = (i as i64 * 7919) % cells;
            (c, vec![Value::I32(c as i32), Value::F64(1.0)])
        }),
    )
    .unwrap();
    db
}

fn index_query(name: &str, lo: i64, hi: i64) -> Query {
    Query::single(
        name,
        ScanSpec {
            table: "t".into(),
            access: Access::IndexRange { lo, hi },
            pred: Pred::True,
            agg: AggSpec::sums(vec![1]),
            cpu: CpuClass::io_bound(),
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        },
    )
}

/// For any mix of overlapping index scans, scan-sharing computes the
/// same answers as the baseline and never does more physical I/O.
#[test]
fn sharing_is_answer_preserving_and_io_monotone() {
    let db = small_db(12, 30_000);
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x5ca_0000 + case);
        let n = rng.random_range(2..6usize);
        let streams: Vec<Stream> = (0..n)
            .map(|i| {
                let (a, b) = (rng.random_range(0i64..12), rng.random_range(0i64..12));
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Stream {
                    queries: vec![index_query(&format!("q{i}"), lo, hi)],
                    start_offset: SimDuration::from_millis(rng.random_range(0u64..400)),
                }
            })
            .collect();
        let spec = |mode| WorkloadSpec {
            streams: streams.clone(),
            pool_pages: 64,
            engine: EngineConfig::default(),
            mode,
            faults: Default::default(),
            slo: Default::default(),
        };
        let base = run_workload(&db, &spec(SharingMode::Base)).unwrap();
        let ss = run_workload(&db, &spec(SharingMode::ScanSharing(SharingConfig::new(0)))).unwrap();
        // Answers identical.
        let mut qb = base.queries.clone();
        let mut qs = ss.queries.clone();
        qb.sort_by_key(|q| q.name.clone());
        qs.sort_by_key(|q| q.name.clone());
        for (b, s) in qb.iter().zip(&qs) {
            assert_eq!(b.result.count, s.result.count, "case {case}");
        }
        // Sharing reads at most what base reads, plus a small margin for
        // wrap-phase effects on tiny scans.
        assert!(
            ss.disk.pages_read as f64 <= base.disk.pages_read as f64 * 1.05 + 64.0,
            "case {case}: ss {} base {}",
            ss.disk.pages_read,
            base.disk.pages_read
        );
    }
}

/// For any seeded transient-fault plan, retries mask every injected
/// error (answers match a clean run), and repeat runs of the identical
/// (seed, plan) pair are byte-identical end to end — fault draws,
/// retry/backoff accounting, and the decision log included.
#[test]
fn fault_injection_is_deterministic_and_answer_preserving() {
    use scanshare_repro::engine::FaultsConfig;
    use scanshare_repro::storage::{FaultKind, FaultPlan, FaultRule};
    let db = small_db(12, 30_000);
    for case in 0..6u64 {
        let mut rng = Rng::seed_from_u64(0x0fa0_1700 + case);
        let n = rng.random_range(2..5usize);
        let streams: Vec<Stream> = (0..n)
            .map(|i| {
                let (a, b) = (rng.random_range(0i64..12), rng.random_range(0i64..12));
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Stream {
                    queries: vec![index_query(&format!("q{i}"), lo, hi)],
                    start_offset: SimDuration::from_millis(rng.random_range(0u64..400)),
                }
            })
            .collect();
        let plan = FaultPlan {
            seed: rng.random_range(0u64..1 << 32),
            rules: vec![FaultRule {
                device: None,
                pages: None,
                from_us: 0,
                until_us: None,
                fault: FaultKind::TransientError {
                    probability: rng.random_range(0.0f64..0.04),
                },
            }],
        };
        let spec = |faults| WorkloadSpec {
            streams: streams.clone(),
            pool_pages: 64,
            engine: EngineConfig::default(),
            mode: SharingMode::ScanSharing(SharingConfig::new(0)),
            faults,
            slo: Default::default(),
        };
        let clean = run_workload(&db, &spec(FaultsConfig::default())).unwrap();
        let cfg = FaultsConfig {
            plan,
            ..FaultsConfig::default()
        };
        let a = run_workload(&db, &spec(cfg.clone())).unwrap();
        let b = run_workload(&db, &spec(cfg)).unwrap();

        // Same seed, same plan: bit-for-bit the same report, decisions
        // and fault counters included.
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "case {case}: repeat faulted runs diverged"
        );
        // Transient faults never change answers — every error retried.
        assert_eq!(a.faults.scans_aborted, 0, "case {case}");
        assert_eq!(
            a.faults.retries, a.faults.transient_errors,
            "case {case}: every transient error costs exactly one retry"
        );
        let mut qc = clean.queries.clone();
        let mut qf = a.queries.clone();
        qc.sort_by_key(|q| q.name.clone());
        qf.sort_by_key(|q| q.name.clone());
        assert_eq!(qc.len(), qf.len(), "case {case}");
        for (c, f) in qc.iter().zip(&qf) {
            assert_eq!(
                c.result, f.result,
                "case {case}: answers must survive faults"
            );
        }
    }
}

/// Push delivery is invariant to the order streams are listed in the
/// spec: for any mix of overlapping index scans with distinct start
/// offsets, permuting the stream vector changes neither `pages_read`
/// nor any query's answer or fix counts — the group drivers deliver
/// the same pages no matter where each consumer sat in the listing.
#[test]
fn push_delivery_is_stream_order_invariant() {
    use scanshare_repro::core::DeliveryMode;
    let db = small_db(12, 30_000);
    for case in 0..12u64 {
        let mut rng = Rng::seed_from_u64(0x9054_0000 + case);
        let n = rng.random_range(2..6usize);
        let mut streams: Vec<Stream> = (0..n)
            .map(|i| {
                let (a, b) = (rng.random_range(0i64..12), rng.random_range(0i64..12));
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Stream {
                    queries: vec![index_query(&format!("q{i}"), lo, hi)],
                    // Distinct offsets: arrival order stays fixed, only
                    // the listing order changes under the permutation.
                    start_offset: SimDuration::from_micros(
                        rng.random_range(0u64..400) * 1_000 + i as u64,
                    ),
                }
            })
            .collect();
        let mut cfg = SharingConfig::new(0);
        cfg.delivery = DeliveryMode::Push;
        let spec = |streams: Vec<Stream>| WorkloadSpec {
            streams,
            pool_pages: 64,
            engine: EngineConfig::default(),
            mode: SharingMode::ScanSharing(cfg.clone()),
            faults: Default::default(),
            slo: Default::default(),
        };
        let a = run_workload(&db, &spec(streams.clone())).unwrap();
        assert!(a.push.is_some(), "case {case}: push summary missing");
        for _ in 0..8 {
            let (x, y) = (rng.random_range(0..n), rng.random_range(0..n));
            streams.swap(x, y);
        }
        let b = run_workload(&db, &spec(streams)).unwrap();
        assert_eq!(a.disk.pages_read, b.disk.pages_read, "case {case}");
        let sorted = |r: &scanshare_repro::engine::RunReport| {
            let mut q = r.queries.clone();
            q.sort_by_key(|q| q.name.clone());
            q
        };
        let (qa, qb) = (sorted(&a), sorted(&b));
        assert_eq!(qa.len(), qb.len(), "case {case}");
        for (x, y) in qa.iter().zip(&qb) {
            assert_eq!(x.name, y.name, "case {case}");
            assert_eq!(x.result, y.result, "case {case}: answers must not move");
            assert_eq!(x.logical_reads, y.logical_reads, "case {case}");
            assert_eq!(x.physical_reads, y.physical_reads, "case {case}");
        }
    }
}

/// A push consumer that faults during its private catch-up replay is
/// evicted alone: the group driver and the riders that already finished
/// keep byte-identical query records, answers included, and the driver
/// role never moves.
#[test]
fn faulted_push_consumer_eviction_leaves_survivors_byte_stable() {
    use scanshare_repro::core::{DecisionEvent, DeliveryMode, Placement};
    use scanshare_repro::engine::FaultsConfig;
    use scanshare_repro::storage::{FaultKind, FaultPlan, FaultRule};

    let db = small_db(12, 30_000);
    // The attach placement accepts any catch-up distance, so a very late
    // third stream still rides the existing driver and replays a long
    // prefix privately — stretching its life past the survivors'.
    let mut cfg = SharingConfig::baseline(0, Placement::Attach);
    cfg.delivery = DeliveryMode::Push;
    let spec = |late_us: u64, faults: FaultsConfig| WorkloadSpec {
        streams: vec![
            Stream {
                queries: vec![index_query("q0", 0, 11)],
                start_offset: SimDuration::from_micros(0),
            },
            Stream {
                queries: vec![index_query("q1", 0, 11)],
                start_offset: SimDuration::from_millis(1),
            },
            Stream {
                queries: vec![index_query("q2", 0, 11)],
                start_offset: SimDuration::from_micros(late_us),
            },
        ],
        pool_pages: 64,
        engine: EngineConfig::default(),
        mode: SharingMode::ScanSharing(cfg.clone()),
        faults,
        slo: Default::default(),
    };
    // Calibrate: the driver's lap length with everyone starting early,
    // then re-run with the third stream joining at 80% of that lap.
    let probe = run_workload(&db, &spec(2_000, FaultsConfig::default())).unwrap();
    let late_us = (probe.makespan.as_micros() as f64 * 0.8) as u64;
    let clean = run_workload(&db, &spec(late_us, FaultsConfig::default())).unwrap();
    let ps = clean.push.as_ref().expect("push summary");
    assert_eq!(ps.drivers, 1, "everyone shares one driver: {ps:?}");
    assert_eq!(ps.attaches, 2, "{ps:?}");
    assert!(ps.catchup_pages > 0, "late joiner must replay a prefix");
    let by_name = |r: &scanshare_repro::engine::RunReport, name: &str| {
        r.queries
            .iter()
            .find(|q| q.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("query {name} missing"))
    };
    let survivors_end = by_name(&clean, "q0").end.max(by_name(&clean, "q1").end);
    let victim_end = by_name(&clean, "q2").end;
    assert!(
        victim_end > survivors_end,
        "catch-up must outlive the lap: victim {victim_end:?} vs survivors {survivors_end:?}"
    );
    // Kill the disk for good halfway through the victim-only window:
    // the only scan still reading is q2's catch-up cursor.
    let mid_us = (survivors_end.as_micros() + victim_end.as_micros()) / 2;
    let faults = FaultsConfig {
        plan: FaultPlan {
            seed: 1,
            rules: vec![FaultRule {
                device: None,
                pages: None,
                from_us: mid_us,
                until_us: None,
                fault: FaultKind::PermanentError,
            }],
        },
        ..FaultsConfig::default()
    };
    let faulted = run_workload(&db, &spec(late_us, faults)).unwrap();
    assert_eq!(faulted.faults.scans_aborted, 1, "{:?}", faulted.faults);
    let fps = faulted.push.as_ref().expect("push summary");
    assert_eq!(fps.handoffs, 0, "the driver itself never faulted: {fps:?}");
    assert_eq!(fps.drivers, 1, "{fps:?}");
    // Survivors are byte-stable: the fault fired after they finished.
    for name in ["q0", "q1"] {
        assert_eq!(
            serde_json::to_string(&by_name(&clean, name)).unwrap(),
            serde_json::to_string(&by_name(&faulted, name)).unwrap(),
            "survivor {name} perturbed by the victim's eviction"
        );
    }
    // The victim carries a partial answer and an eviction decision
    // naming the permanent fault.
    assert!(
        by_name(&faulted, "q2").result.count < by_name(&clean, "q2").result.count,
        "victim must be cut short"
    );
    assert!(faulted.decisions.iter().any(|d| matches!(
        &d.event,
        DecisionEvent::ScanEvicted { reason, .. } if reason.contains("permanent read fault")
    )));
}

/// The pages and levels a bulk load of `n` entries allocates: the root
/// placeholder, ⌈n/459⌉ leaves (90 % of 511 entries), then internal
/// levels of at most 369 children (90 % of 409 separators, plus child0)
/// until one node is left.
fn bulk_load_shape(n: usize) -> (u32, u32) {
    let mut level = n.div_ceil(459);
    let (mut pages, mut levels) = (1 + level, 1);
    while level > 1 {
        level = level.div_ceil(369);
        pages += level;
        levels += 1;
    }
    (pages as u32, levels)
}

/// A bulk-loaded B+ tree agrees with a sorted-vector model for any
/// sorted entry set, at one, two and three levels, and allocates the
/// pages its fill factors fix.
#[test]
fn btree_matches_model() {
    // (entries, distinct-key span): empty, one leaf, one full leaf, two
    // leaves, duplicates across many leaves, a full two-level root, one
    // entry more (three levels), and three levels with duplicates.
    let cases = [
        (0usize, 10i64),
        (1, 10),
        (459, 50),
        (460, 50),
        (5_000, 3),
        (369 * 459, 40_000),
        (369 * 459 + 1, 40_000),
        (200_000, 1_000),
    ];
    let mut levels_seen = Vec::new();
    for (case, &(n, span)) in cases.iter().enumerate() {
        let mut rng = Rng::seed_from_u64(0xb7ee_0000 + case as u64);
        let mut model: Vec<Entry> = (0..n)
            .map(|_| Entry::new(rng.random_range(-span..span), rng.random_range(0u64..1000)))
            .collect();
        model.sort();

        let mut store = FileStore::new(16);
        let tree = BTree::bulk_load(&mut store, &model).unwrap();
        let (pages, levels) = bulk_load_shape(n);
        assert_eq!(store.num_pages(tree.file()).unwrap(), pages, "n = {n}");
        levels_seen.push(levels);
        assert_eq!(tree.num_entries(), n as u64, "n = {n}");
        assert_eq!(tree.all(&store).unwrap(), model, "n = {n}");

        // Random bounds, some inverted and some outside the keys.
        for _ in 0..20 {
            let lo = rng.random_range(-span - 10..span + 10);
            let hi = rng.random_range(-span - 10..span + 10);
            let expect: Vec<Entry> = model
                .iter()
                .filter(|e| lo <= e.key && e.key <= hi)
                .copied()
                .collect();
            assert_eq!(tree.range(&store, lo, hi).unwrap(), expect, "n = {n}");
        }
        assert_eq!(tree.range(&store, i64::MIN, -span - 1).unwrap(), []);
        assert_eq!(tree.range(&store, span, i64::MAX).unwrap(), []);
        assert_eq!(tree.range(&store, span, -span).unwrap(), []);
    }
    assert_eq!(levels_seen, [1, 1, 1, 2, 2, 2, 3, 3]);
}

/// The buffer pool never exceeds capacity, and logical reads are counted
/// exactly once per fix.
#[test]
fn pool_respects_capacity_and_priorities() {
    use scanshare_repro::storage::{FileId, PageId};
    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0x9001_0000 + case);
        let cap = rng.random_range(2..16usize);
        let n_ops = rng.random_range(1..500usize);
        let mut pool = BufferPool::new(PoolConfig::new(cap, ReplacementPolicy::PriorityLru));
        let buf = scanshare_repro::storage::page::zeroed_page().freeze();
        for _ in 0..n_ops {
            let id = PageId::new(FileId(0), rng.random_range(0u32..64));
            let priority = match rng.random_range(0u8..3) {
                0 => PagePriority::Low,
                1 => PagePriority::Normal,
                _ => PagePriority::High,
            };
            if pool.fix_slot(id).is_none() {
                pool.complete_miss_slot(id, buf.clone()).unwrap();
            }
            pool.release(id, priority).unwrap();
            assert!(pool.len() <= cap, "case {case}");
        }
        assert_eq!(pool.stats().logical_reads, n_ops as u64, "case {case}");
    }
}

/// Grouping never exceeds the pool budget and leaders are ahead of
/// trailers.
#[test]
fn grouping_invariants() {
    use scanshare_repro::core::anchor::AnchorId;
    use scanshare_repro::core::grouping::find_leaders_trailers;
    use scanshare_repro::core::ScanId;
    for case in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0x6e0_0000 + case);
        let n = rng.random_range(1..24usize);
        let pool = rng.random_range(1u64..5_000);
        let scans: Vec<(ScanId, AnchorId, i64)> = (0..n)
            .map(|i| {
                (
                    ScanId(i as u64),
                    AnchorId((i % 3) as u64),
                    rng.random_range(0i64..10_000),
                )
            })
            .collect();
        let groups = find_leaders_trailers(&scans, pool);
        assert!(groups.total_extent() < pool.max(1), "case {case}");
        let mut seen = 0;
        for g in &groups.groups {
            seen += g.members.len();
            // Members sorted by offset: leader last, trailer first.
            let offs: Vec<i64> = g
                .members
                .iter()
                .map(|m| scans.iter().find(|s| s.0 == *m).unwrap().2)
                .collect();
            for w in offs.windows(2) {
                assert!(w[0] <= w[1], "case {case}");
            }
            assert_eq!(
                g.extent,
                (offs[offs.len() - 1] - offs[0]) as u64,
                "case {case}"
            );
        }
        assert_eq!(seen, scans.len(), "case {case}");
    }
}

/// Placement always returns a start inside the feasible range and never
/// estimates more reads than the no-sharing baseline.
#[test]
fn placement_bounds() {
    use scanshare_repro::core::placement::{best_start_practical, calculate_reads, Trace};
    for case in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0x0009_1ace_0000 + case);
        let n = rng.random_range(1..8usize);
        let traces: Vec<Trace> = (0..n)
            .map(|_| {
                let p = rng.random_range(0.0f64..5_000.0);
                let v = rng.random_range(10.0f64..500.0);
                let len = rng.random_range(1.0f64..5_000.0);
                Trace::new(p, v, p + len)
            })
            .collect();
        let cand_speed = rng.random_range(10.0f64..500.0);
        let cand_pages = rng.random_range(100.0f64..5_000.0);
        let pool = rng.random_range(16.0f64..1_000.0);
        if let Some(c) = best_start_practical(&traces, cand_speed, cand_pages, pool) {
            assert!(
                traces.iter().any(|t| (t.pos0 - c.start).abs() < 1e-9),
                "case {case}"
            );
            assert!(
                c.estimate.reads <= c.estimate.baseline + 1e-6,
                "case {case}"
            );
            assert!(c.estimate.savings_per_page() > 0.0, "case {case}");
        }
        // calculate_reads is always within [0, baseline].
        let est = calculate_reads(&traces, Trace::new(0.0, cand_speed, cand_pages), pool);
        assert!(est.reads >= 0.0, "case {case}");
        assert!(est.reads <= est.baseline + 1e-6, "case {case}");
    }
}
