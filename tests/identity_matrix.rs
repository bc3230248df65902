//! Report-identity matrix for the scan executor.
//!
//! Every cell runs one workload and compares the FNV-1a digest of its
//! serialized [`RunReport`] with a constant computed by the commit that
//! preceded the cursor/consumer refactor (pull `ScanExec::step`, push
//! `step_driver` and `step_catchup` as three separate bodies). A cell
//! that moves by one byte — a makespan, a fix count, a decision record,
//! the order of two trace events — fails by name. Every run is traced
//! (the report embeds the event log, so the digest covers it) and
//! profiled: pull and base cells also pin their span tree, stripped of
//! its host-clock stamps, which the refactor must leave alone; push
//! cells do not, because there it adds the phases pull steps have.
//!
//! The cells cross delivery (pull, push) with policy (grouping, attach,
//! elevator), stagger, fault plan (none, transient, a permanent window,
//! a permanent tail, stalls), prefetch depth, plan kind (block index,
//! full table with wrap, RID), CPU mix and pool size, plus base mode.
//! Each cell that exists to reach a particular path (owner handoff,
//! catch-up replay, abort of every scan, pull fallback under push) also
//! asserts that its run reached it, so a digest can not go on matching
//! after the workload stops exercising what it was chosen for.
//!
//! The constants were produced by the parent commit's code: this file was
//! copied into a clone of that commit with `PARENT_DIGESTS` empty, the
//! test run there, and the table its failure message prints pasted in.
//! After a *deliberate* behaviour change the same procedure regenerates
//! them.

use scanshare_repro::core::{
    DecisionEvent, DeliveryMode, SharingConfig, SharingPolicyKind, SpanProfiler,
};
use scanshare_repro::engine::{
    run_workload_hooked, Access, AggSpec, CpuClass, Database, EngineConfig, FaultsConfig, Pred,
    Query, RunHooks, RunReport, ScanSpec, SharingMode, Stream, Tracer, WorkloadSpec,
};
use scanshare_repro::relstore::{ColType, Column, Schema, Value};
use scanshare_repro::storage::{FaultKind, FaultPlan, FaultRule, SimDuration};
use scanshare_repro::tpch::{generate, q1, q6, throughput_workload, TpchConfig};

use DeliveryMode::{Pull, Push};
use SharingPolicyKind::{Attach, Elevator, Grouping};

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The tiny TPC-H database plus one RID-indexed heap table whose key
/// order is not its page order.
fn build_db(cfg: &TpchConfig) -> Database {
    let mut db = generate(cfg);
    let schema = Schema::new(vec![
        Column::new("key", ColType::Int32),
        Column::new("v", ColType::Float64),
    ]);
    db.create_heap_table_with_index(
        "events",
        schema,
        0,
        (0..20_000).map(|i| vec![Value::I32((i * 7) % 50), Value::F64(0.25)]),
    )
    .expect("events table");
    db
}

fn sharing(policy: SharingPolicyKind, delivery: DeliveryMode) -> SharingMode {
    let mut cfg = SharingConfig::with_policy(0, policy);
    cfg.delivery = delivery;
    SharingMode::ScanSharing(cfg)
}

/// One query per stream, stream `i` starting `i * stagger_us` in.
fn cohort(
    queries: Vec<Query>,
    stagger_us: u64,
    pool_pages: usize,
    mode: SharingMode,
) -> WorkloadSpec {
    WorkloadSpec {
        streams: queries
            .into_iter()
            .enumerate()
            .map(|(i, q)| Stream {
                queries: vec![q],
                start_offset: SimDuration::from_micros(stagger_us * i as u64),
            })
            .collect(),
        pool_pages,
        engine: EngineConfig::default(),
        mode,
        faults: Default::default(),
        slo: Default::default(),
    }
}

fn with_cpu(mut q: Query, cpu: CpuClass) -> Query {
    q.scans[0].cpu = cpu;
    q
}

fn rid_query(lo: i64, hi: i64) -> Query {
    Query::single(
        "RID",
        ScanSpec {
            table: "events".into(),
            access: Access::RidRange { lo, hi },
            pred: Pred::True,
            agg: AggSpec::sums(vec![1]),
            cpu: CpuClass::io_bound(),
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        },
    )
}

fn faults(seed: u64, from_us: u64, until_us: Option<u64>, fault: FaultKind) -> FaultsConfig {
    FaultsConfig {
        plan: FaultPlan {
            seed,
            rules: vec![FaultRule {
                device: None,
                pages: None,
                from_us,
                until_us,
                fault,
            }],
        },
        ..FaultsConfig::default()
    }
}

/// What a cell's run must have reached for its digest to mean anything.
#[derive(Clone, Copy)]
enum Reach {
    /// Nothing beyond finishing.
    Any,
    /// At least one catch-up page was replayed.
    CatchUp,
    /// At least one driver handoff, narrated by a decision.
    Handoff,
    /// Every scan aborted.
    AllAborted,
    /// Some scan aborted, some did not.
    SomeAborted,
    /// A fault plan fired and every scan survived it.
    FaultsAbsorbed,
    /// Push mode admitted nobody: every scan fell back to pull.
    PullFallback,
    /// At least one pull scan was placed mid-range (and so wrapped).
    Joined,
    /// At least one throttle wait was injected.
    Throttled,
}

fn check_reach(name: &str, reach: Reach, spec: &WorkloadSpec, r: &RunReport) {
    let scans: usize = spec
        .streams
        .iter()
        .flat_map(|s| &s.queries)
        .map(|q| q.scans.len())
        .sum();
    let push = r.push.clone().unwrap_or_default();
    match reach {
        Reach::Any => {}
        Reach::CatchUp => assert!(push.catchup_pages > 0, "{name}: no catch-up: {push:?}"),
        Reach::Handoff => {
            assert!(push.handoffs >= 1, "{name}: no handoff: {push:?}");
            assert!(
                r.decisions
                    .iter()
                    .any(|d| matches!(d.event, DecisionEvent::DriverHandoff { .. })),
                "{name}: handoff not narrated"
            );
        }
        Reach::AllAborted => assert_eq!(
            r.faults.scans_aborted, scans as u64,
            "{name}: {:?}",
            r.faults
        ),
        Reach::SomeAborted => assert!(
            r.faults.scans_aborted > 0 && r.faults.scans_aborted < scans as u64,
            "{name}: {:?}",
            r.faults
        ),
        Reach::FaultsAbsorbed => {
            assert!(!r.faults.is_empty(), "{name}: plan never fired");
            assert_eq!(r.faults.scans_aborted, 0, "{name}: {:?}", r.faults);
        }
        Reach::PullFallback => {
            assert_eq!(push.drivers, 0, "{name}: {push:?}");
            assert!(r.push.is_some(), "{name}: not a push run");
            assert_eq!(r.sharing.scans_started, scans as u64, "{name}");
        }
        Reach::Joined => assert!(r.sharing.scans_joined > 0, "{name}: nobody joined"),
        Reach::Throttled => assert!(
            r.queries
                .iter()
                .any(|q| q.throttle_wait > SimDuration::ZERO),
            "{name}: nobody throttled"
        ),
    }
}

struct Cell {
    name: String,
    spec: WorkloadSpec,
    reach: Reach,
}

fn cells(db: &Database, tpch: &TpchConfig) -> Vec<Cell> {
    let months = tpch.months as i64;
    let pool = scanshare_repro::tpch::workload::paper_pool_pages(db);
    let mut out = Vec::new();
    let mut add =
        |name: String, spec: WorkloadSpec, reach: Reach| out.push(Cell { name, spec, reach });
    let tag = |d: DeliveryMode| if d == Pull { "pull" } else { "push" };
    let q6s = || vec![q6(months, 1); 6];

    // Both deliveries x three policies on a staggered 6-stream Q6
    // cohort, at a tight and a loose stagger.
    for d in [Pull, Push] {
        for p in [Grouping, Attach, Elevator] {
            for stagger_us in [2_000, 15_000] {
                add(
                    format!("q6x6/{}/{}/{}us", tag(d), p.as_str(), stagger_us),
                    cohort(q6s(), stagger_us, pool, sharing(p, d)),
                    Reach::Any,
                );
            }
        }
    }
    let transient = || faults(7, 0, None, FaultKind::TransientError { probability: 0.05 });
    let stalls = || {
        let stall = FaultKind::Stall {
            probability: 0.2,
            for_us: 300_000,
        };
        faults(3, 0, None, stall)
    };
    let dead = |from_us, until_us| faults(0, from_us, until_us, FaultKind::PermanentError);
    // A fast owner (stream 0) with slower riders, plus one scan that
    // needs its rows in order and so shares under neither delivery.
    let lanes = || {
        let mut ordered = q6(months, 1);
        ordered.scans[0].require_order = true;
        vec![
            q6(months, 1),
            with_cpu(q6(months, 1), CpuClass::cpu_bound()),
            with_cpu(q6(months, 1), CpuClass::balanced()),
            with_cpu(q6(months, 1), CpuClass::cpu_bound()),
            ordered,
        ]
    };
    for d in [Pull, Push] {
        let t = tag(d);
        let q6x6 = |stagger_us: u64, p: SharingPolicyKind, f: FaultsConfig, prefetch: u32| {
            let mut spec = cohort(q6s(), stagger_us, pool, sharing(p, d));
            spec.faults = f;
            spec.engine.prefetch_extents = prefetch;
            spec
        };
        let none = FaultsConfig::default;
        let on_push = |reach| if d == Push { reach } else { Reach::Any };

        // Faults a retry absorbs, and read-ahead.
        add(
            format!("q6x6/{t}/transient"),
            q6x6(2_000, Grouping, transient(), 0),
            Reach::FaultsAbsorbed,
        );
        add(
            format!("q6x6/{t}/stalls"),
            q6x6(2_000, Grouping, stalls(), 0),
            Reach::FaultsAbsorbed,
        );
        let reach = if d == Push {
            Reach::CatchUp
        } else {
            Reach::Throttled
        };
        add(
            format!("q6x6/{t}/prefetch"),
            q6x6(15_000, Grouping, none(), 1),
            reach,
        );
        add(
            format!("q6x6/{t}/prefetch+transient"),
            q6x6(15_000, Attach, transient(), 1),
            Reach::FaultsAbsorbed,
        );

        // Permanent faults: a window some scans outlive (under push the
        // cursor changes hands), a window nobody outlives, a tail that
        // kills everything, and a late tail.
        add(
            format!("q6x6/{t}/attach/window"),
            q6x6(15_000, Attach, dead(40_000, Some(50_000)), 0),
            Reach::SomeAborted,
        );
        add(
            format!("q6x6/{t}/prefetch+window"),
            q6x6(2_000, Grouping, dead(60_000, Some(63_000)), 1),
            on_push(Reach::Handoff),
        );
        add(
            format!("q6x6/{t}/window-kills-all"),
            q6x6(2_000, Grouping, dead(90_000, Some(100_000)), 0),
            Reach::AllAborted,
        );
        add(
            format!("q6x6/{t}/tail"),
            q6x6(2_000, Grouping, dead(30_000, None), 0),
            Reach::AllAborted,
        );
        add(
            format!("q6x6/{t}/attach/late-tail"),
            q6x6(15_000, Attach, dead(300_000, None), 0),
            Reach::SomeAborted,
        );

        // Full-table plans: mid-range placement and wrap under pull, a
        // table driver under push.
        let full = |stagger_us: u64, p: SharingPolicyKind, f: FaultsConfig| {
            let mut spec = cohort(
                vec![with_cpu(q1(), CpuClass::balanced()); 4],
                stagger_us,
                pool,
                sharing(p, d),
            );
            spec.faults = f;
            spec
        };
        let reach = if d == Push {
            Reach::CatchUp
        } else {
            Reach::Joined
        };
        add(
            format!("full/{t}/grouping"),
            full(20_000, Grouping, none()),
            reach,
        );
        add(
            format!("full/{t}/elevator"),
            full(60_000, Elevator, none()),
            reach,
        );
        add(
            format!("full/{t}/window"),
            full(20_000, Grouping, dead(100_000, Some(110_000))),
            on_push(Reach::Handoff),
        );

        // RID fetches are not push-shareable.
        let rids = vec![rid_query(5, 30), rid_query(10, 35), rid_query(5, 30)];
        add(
            format!("rid/{t}"),
            cohort(rids, 5_000, pool, sharing(Grouping, d)),
            on_push(Reach::PullFallback),
        );

        // Fast owner, slow riders.
        let mut spec = cohort(lanes(), 2_000, pool, sharing(Grouping, d));
        add(format!("lanes/{t}"), spec.clone(), on_push(Reach::CatchUp));
        spec.faults = dead(60_000, Some(70_000));
        add(format!("lanes/{t}/window"), spec, on_push(Reach::Handoff));

        // The throughput mix, and a pool of a extent and a half.
        add(
            format!("tput/{t}"),
            throughput_workload(db, 3, months, 5, sharing(Grouping, d)),
            Reach::Throttled,
        );
        add(
            format!("pool24/{t}"),
            cohort(q6s(), 15_000, 24, sharing(Grouping, d)),
            Reach::Any,
        );
    }

    // Base mode: no manager, unmanaged cursors only.
    let mut base = cohort(q6s(), 15_000, pool, SharingMode::Base);
    add("base".into(), base.clone(), Reach::Any);
    base.faults = transient();
    add("base/transient".into(), base.clone(), Reach::FaultsAbsorbed);
    base.faults = dead(40_000, Some(50_000));
    add("base/window".into(), base, Reach::SomeAborted);
    out
}

/// `(cell name, (report digest, span-tree digest))`, computed by the
/// parent commit's executor.
const PARENT_DIGESTS: &[(&str, (u64, Option<u64>))] = &[
    (
        "q6x6/pull/grouping/2000us",
        (0x7cdbf8ee46ca41ed, Some(0x95223334d18f969c)),
    ),
    (
        "q6x6/pull/grouping/15000us",
        (0xa9828421aa04ae88, Some(0x3cff24be873a7c6e)),
    ),
    (
        "q6x6/pull/attach/2000us",
        (0x66e216f45c6ead0b, Some(0xcb1204481d6c9e58)),
    ),
    (
        "q6x6/pull/attach/15000us",
        (0x03ddf498dba7d4c4, Some(0x4938e9beece127a1)),
    ),
    (
        "q6x6/pull/elevator/2000us",
        (0x448f6321ca0d959c, Some(0xba63164581646f4e)),
    ),
    (
        "q6x6/pull/elevator/15000us",
        (0x32933d9e9e686ed1, Some(0x064428d51059c668)),
    ),
    ("q6x6/push/grouping/2000us", (0xc5fd7c3d6300bb6a, None)),
    ("q6x6/push/grouping/15000us", (0x0779bb40756ea775, None)),
    ("q6x6/push/attach/2000us", (0xbf4181936fca3fa8, None)),
    ("q6x6/push/attach/15000us", (0x99a819627b26454c, None)),
    ("q6x6/push/elevator/2000us", (0x87b9f777c651da4d, None)),
    ("q6x6/push/elevator/15000us", (0x609c98ad2096c048, None)),
    (
        "q6x6/pull/transient",
        (0x9271a0966e61baca, Some(0x0ae9a219983f5a22)),
    ),
    (
        "q6x6/pull/stalls",
        (0x9c435e9216e5a92c, Some(0xeab013d5f2417d31)),
    ),
    (
        "q6x6/pull/prefetch",
        (0x43ad461b131e1531, Some(0x9621fdafd0a6f967)),
    ),
    (
        "q6x6/pull/prefetch+transient",
        (0xa84a7db8dbeec8c7, Some(0x0a1df14971b65b84)),
    ),
    (
        "q6x6/pull/attach/window",
        (0x57eb724aca4ad589, Some(0x4f130c544a4a866c)),
    ),
    (
        "q6x6/pull/prefetch+window",
        (0x5ed55307a5c10a4f, Some(0xec915376ebba414e)),
    ),
    (
        "q6x6/pull/window-kills-all",
        (0xe0db30868159d9d8, Some(0xeea3705e2346bb5e)),
    ),
    (
        "q6x6/pull/tail",
        (0x8ba56840a599ed1f, Some(0x403e6a389915697d)),
    ),
    (
        "q6x6/pull/attach/late-tail",
        (0x73c27452eded186f, Some(0xaa81c314a06f917b)),
    ),
    (
        "full/pull/grouping",
        (0x4c637acd1df8655f, Some(0xe59f3380d775f05f)),
    ),
    (
        "full/pull/elevator",
        (0xc41b2cd24c940dfd, Some(0x4ab80be4798fd1b2)),
    ),
    (
        "full/pull/window",
        (0xfd94c6e0f7933f1c, Some(0x3f48e5496fb129b0)),
    ),
    ("rid/pull", (0x4ac02f3db7dcbe6f, Some(0xa363a7d38e6d7afe))),
    ("lanes/pull", (0xd33365a4aa9a1d46, Some(0x100e4c8000c63db7))),
    (
        "lanes/pull/window",
        (0x0fc827f895420423, Some(0x8f361589297c15f9)),
    ),
    ("tput/pull", (0xcb8066b335ce6a4e, Some(0x8cc13f9cb137894b))),
    (
        "pool24/pull",
        (0x5c8d5de3747d690a, Some(0xb60592d4c99b0463)),
    ),
    ("q6x6/push/transient", (0x4110efbac507b928, None)),
    ("q6x6/push/stalls", (0xfbadf7f4ff2d3c7f, None)),
    ("q6x6/push/prefetch", (0x284503d94870ae86, None)),
    ("q6x6/push/prefetch+transient", (0x515b60d6e333eff3, None)),
    ("q6x6/push/attach/window", (0x939128d5eb160f30, None)),
    ("q6x6/push/prefetch+window", (0xbe09d305d51f0d75, None)),
    ("q6x6/push/window-kills-all", (0x350e5c85887d8345, None)),
    ("q6x6/push/tail", (0x72fe01edb1f906ee, None)),
    ("q6x6/push/attach/late-tail", (0xabe6bef6e7b247ca, None)),
    ("full/push/grouping", (0x48c35f75e0cf99e3, None)),
    ("full/push/elevator", (0x891135cae04cd640, None)),
    ("full/push/window", (0x86a6bd5538a19274, None)),
    ("rid/push", (0xe7a070831f1efbb7, None)),
    ("lanes/push", (0x7a9b8256e87b336c, None)),
    ("lanes/push/window", (0xc2db7f58c5e6df62, None)),
    ("tput/push", (0x1930d2fbf01f3b60, None)),
    ("pool24/push", (0xde1ec6ed053d1df4, None)),
    ("base", (0x7d9b99c0142255ce, Some(0x14ffc8e690a4607d))),
    (
        "base/transient",
        (0xc52d8498f9c128bd, Some(0xbef7e41e2372f99d)),
    ),
    (
        "base/window",
        (0x90b1f76b5f4aaddd, Some(0xb115c25b89243636)),
    ),
];

#[test]
fn every_cell_serialises_to_the_parent_commits_bytes() {
    let tpch = TpchConfig {
        scale: 0.2,
        months: 36,
        block_pages: 8,
        seed: 99,
    };
    let db = build_db(&tpch);
    let cells = cells(&db, &tpch);
    assert!(cells.len() >= 24, "matrix shrank to {} cells", cells.len());
    let show = |(report, spans): (u64, Option<u64>)| match spans {
        Some(spans) => format!("(0x{report:016x}, Some(0x{spans:016x}))"),
        None => format!("(0x{report:016x}, None)"),
    };
    let mut table = String::new();
    let mut moved = Vec::new();
    for cell in &cells {
        let profiler = SpanProfiler::default();
        let hooks = RunHooks {
            tracer: Some(Tracer::new(1 << 16)),
            profiler: Some(profiler.clone()),
            ..RunHooks::default()
        };
        let r = run_workload_hooked(&db, &cell.spec, hooks)
            .unwrap_or_else(|e| panic!("{}: {e}", cell.name));
        check_reach(&cell.name, cell.reach, &cell.spec, &r);
        let json = serde_json::to_string(&r).expect("report encodes");
        // The span tree minus its host-clock stamps. Push cells are
        // exempt: the refactor gives their steps the phases pull's have.
        let push = matches!(&cell.spec.mode, SharingMode::ScanSharing(c) if c.delivery == Push);
        let spans = (!push).then(|| {
            let tree: Vec<_> = profiler
                .records()
                .into_iter()
                .map(|s| {
                    (
                        s.id,
                        s.parent,
                        s.name,
                        s.track,
                        s.vt_start_us,
                        s.vt_end_us,
                        s.attrs,
                    )
                })
                .collect();
            fnv1a(format!("{tree:?}").as_bytes())
        });
        let got = (fnv1a(json.as_bytes()), spans);
        table.push_str(&format!("    (\"{}\", {}),\n", cell.name, show(got)));
        match PARENT_DIGESTS.iter().find(|(n, _)| *n == cell.name) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => {
                moved.push(format!("{}: {} -> {}", cell.name, show(*want), show(got)))
            }
            None => moved.push(format!("{}: no parent digest", cell.name)),
        }
    }
    assert!(
        moved.is_empty() && PARENT_DIGESTS.len() == cells.len(),
        "{} of {} cells moved ({} digest rows):\n{}\nthis run's table:\n{table}",
        moved.len(),
        cells.len(),
        PARENT_DIGESTS.len(),
        moved.join("\n")
    );
}
