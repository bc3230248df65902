//! Report-identity matrix for the scan executor.
//!
//! Every cell runs one workload and compares the FNV-1a digest of its
//! serialized [`RunReport`] with a constant computed by the commit that
//! preceded the cursor/consumer refactor (pull `ScanExec::step`, push
//! `step_driver` and `step_catchup` as three separate bodies). A cell
//! that moves by one byte — a makespan, a fix count, a decision record,
//! the order of two lifecycle events — fails by name. The report embeds
//! the run's decision log, scan lifecycles included, so the digest
//! covers it. Every run is also profiled, and every cell also pins its
//! span tree, stripped of its host-clock stamps. Push cells were exempt
//! from that pin until the manager's track became a view of its decision
//! log; their span digests were then computed, by the same procedure,
//! with the code before that change, so `mgr.push_attach` and
//! `mgr.push_handoff` instants are pinned like placement's.
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
//! them. The report digests were regenerated when the engine's trace
//! ring was retired: reports lost their `trace` key and their decision
//! logs gained `ScanStarted`/`ScanWrapped`/`ScanEnded` records; the span
//! digests and `LIFECYCLE_PINS` did not move. They were last regenerated,
//! with `LIFECYCLE_PINS`' report digests, when whole-page steps began
//! folding page subtotals, which moves the last bits of sums and nothing
//! else: `ANSWERLESS_DIGESTS`, taken by the code before that change over
//! every report with its answers removed, did not move, and neither did
//! the span digests, the lifecycle digests or the two RID cells. The 15
//! cells whose fault plan kills reads for good moved once more when a
//! fetch that dies partway began charging its owner for the pages it
//! fixed: their `queries[*].logical_reads` and nothing else, which
//! `UNCHARGED_DIGESTS` (taken by the same code as `ANSWERLESS_DIGESTS`,
//! over reports without answers or query fixes) holds them to.
//!
//! Two more pins per cell, in `LIFECYCLE_PINS`, outlive such changes to
//! what the report embeds: a digest of every scan's lifecycle row
//! (`scan|query|stream|placement|start_us|finish_us|wraps|throttles|wait_us`)
//! and a digest of the report JSON without its lifecycle records. They
//! were computed, with the same procedure, by the commit whose reports
//! still carried the trace ring beside the decision log: its rows came
//! from that ring and its report digest omits the `trace` key. Now the
//! rows come from [`lifecycles`] over the decision log.
//!
//! Both report pins are taken over [`parent_bytes`] of the report: the
//! shape the parent commit wrote, which left a section out while it
//! held its default. Each cell also checks that this shape loads back to
//! the report it came from.
//!
//! Two more tests read each cell's log as a second witness: every
//! sharing counter re-derives from it, and every scan it starts ends
//! exactly once. The last checks conservation laws over every cell's
//! report, and over one more cohort that reaches a known bug; each law
//! a cell breaks is listed, with why.

use std::collections::BTreeMap;

use scanshare_repro::core::decision::lifecycles;
use scanshare_repro::core::{
    DecisionEvent, DeliveryMode, Placement, ScanId, SharingConfig, SpanProfiler,
};
use scanshare_repro::engine::workload::DEFAULT_DECISION_CAP;
use scanshare_repro::engine::{
    run_workload, run_workload_hooked, Access, AggSpec, CpuClass, Database, EngineConfig,
    FaultSummary, FaultsConfig, Pred, Query, RunHooks, RunReport, ScanSpec, SharingMode, Stream,
    WorkloadSpec,
};
use scanshare_repro::relstore::{ColType, Column, Schema, Value};
use scanshare_repro::storage::{FaultKind, FaultPlan, FaultRule, SimDuration, SimTime};
use scanshare_repro::tpch::{generate, q1, q6, throughput_workload, TpchConfig};

use DeliveryMode::{Pull, Push};
use Placement::{Attach, Elevator, Practical as Grouping};

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

/// The paper's placement with every mechanism on, or a related-work
/// scheme as it was built (no throttling, no page priorities).
fn sharing(placement: Placement, delivery: DeliveryMode) -> SharingMode {
    let mut cfg = match placement {
        Grouping => SharingConfig::new(0),
        _ => SharingConfig::baseline(0, placement),
    };
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
            assert_ne!(
                r.faults,
                FaultSummary::default(),
                "{name}: plan never fired"
            );
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
                    format!("q6x6/{}/{}/{}us", tag(d), p.policy_name(), stagger_us),
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
        let q6x6 = |stagger_us: u64, p: Placement, f: FaultsConfig, prefetch: u32| {
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
        let full = |stagger_us: u64, p: Placement, f: FaultsConfig| {
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

        // RID fetches pull under push: a driver would serve one exact
        // key range, and 10..35 overlaps 5..30 without equalling it.
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
/// parent commit's executor (report digests: see the module doc).
const PARENT_DIGESTS: &[(&str, (u64, u64))] = &[
    (
        "q6x6/pull/grouping/2000us",
        (0x506ad6d85144580c, 0x95223334d18f969c),
    ),
    (
        "q6x6/pull/grouping/15000us",
        (0x4e5a9c99e41998f1, 0x3cff24be873a7c6e),
    ),
    (
        "q6x6/pull/attach/2000us",
        (0x643d7ef045f17f2e, 0xcb1204481d6c9e58),
    ),
    (
        "q6x6/pull/attach/15000us",
        (0xf4c0e0d3d9400eff, 0x4938e9beece127a1),
    ),
    (
        "q6x6/pull/elevator/2000us",
        (0x8dc0dfc6192f7ec5, 0xba63164581646f4e),
    ),
    (
        "q6x6/pull/elevator/15000us",
        (0x4e92d6a62815d832, 0x064428d51059c668),
    ),
    (
        "q6x6/push/grouping/2000us",
        (0xafb5fd876f6d0ad6, 0xd8e58efd151e36e5),
    ),
    (
        "q6x6/push/grouping/15000us",
        (0x9f7c54e727078f31, 0x6365c979826221bb),
    ),
    (
        "q6x6/push/attach/2000us",
        (0xa760794fa40afa50, 0x2c9355cd4443f619),
    ),
    (
        "q6x6/push/attach/15000us",
        (0x8bfeca5d0f9cd747, 0xd75e6327573a3b44),
    ),
    (
        "q6x6/push/elevator/2000us",
        (0x7668f7e2b96fc235, 0x77b86969e384d351),
    ),
    (
        "q6x6/push/elevator/15000us",
        (0x111e4e2791a7f7e9, 0x1e0759d50cdbb298),
    ),
    (
        "q6x6/pull/transient",
        (0x9108dd14150f74d3, 0x0ae9a219983f5a22),
    ),
    ("q6x6/pull/stalls", (0x7470fd747999f063, 0xeab013d5f2417d31)),
    (
        "q6x6/pull/prefetch",
        (0xe16b793aec1bb5ee, 0x9621fdafd0a6f967),
    ),
    (
        "q6x6/pull/prefetch+transient",
        (0x6fbc684731ca21b5, 0x0a1df14971b65b84),
    ),
    (
        "q6x6/pull/attach/window",
        (0x8eaff3cf77467b6c, 0x4f130c544a4a866c),
    ),
    (
        "q6x6/pull/prefetch+window",
        (0x2f708c9fa8248760, 0xec915376ebba414e),
    ),
    (
        "q6x6/pull/window-kills-all",
        (0x1418290802a493ca, 0xeea3705e2346bb5e),
    ),
    ("q6x6/pull/tail", (0x347bdc285eeffde1, 0x403e6a389915697d)),
    (
        "q6x6/pull/attach/late-tail",
        (0x014f5d6658ade06b, 0xaa81c314a06f917b),
    ),
    (
        "full/pull/grouping",
        (0x93653265b0720a06, 0xe59f3380d775f05f),
    ),
    (
        "full/pull/elevator",
        (0xff602d99a54a0985, 0x4ab80be4798fd1b2),
    ),
    ("full/pull/window", (0x164e49db12e29533, 0x3f48e5496fb129b0)),
    ("rid/pull", (0x42e3d7f0fca32147, 0xa363a7d38e6d7afe)),
    ("lanes/pull", (0x42017ac054b4b7d9, 0x100e4c8000c63db7)),
    (
        "lanes/pull/window",
        (0xfe0ce3820dae8949, 0x8f361589297c15f9),
    ),
    ("tput/pull", (0xf172dffdde221c47, 0x8cc13f9cb137894b)),
    ("pool24/pull", (0x648ef18d92e777cd, 0xb60592d4c99b0463)),
    (
        "q6x6/push/transient",
        (0xd9beccb94eda497e, 0xba6b9941e63e2e8f),
    ),
    ("q6x6/push/stalls", (0xa19c98af2f0ec361, 0x44ac1887051d8e86)),
    (
        "q6x6/push/prefetch",
        (0x0f4a5fbb0ba05120, 0xe50b8cab5f23ac96),
    ),
    (
        "q6x6/push/prefetch+transient",
        (0xb1e1f1d635c65401, 0x0a7d3ca40f54d461),
    ),
    (
        "q6x6/push/attach/window",
        (0xf7fb7760f007dcf4, 0xde8a308d929a184f),
    ),
    (
        "q6x6/push/prefetch+window",
        (0x0b0901176d64d100, 0x757a9e293af05f41),
    ),
    (
        "q6x6/push/window-kills-all",
        (0xe70c19f135f272ba, 0xb656b50efd3160c2),
    ),
    ("q6x6/push/tail", (0x7f2d3a875884bfb8, 0x49c9037dbac56ae7)),
    (
        "q6x6/push/attach/late-tail",
        (0x5a88122d04df93e6, 0xb5d4d22091853840),
    ),
    (
        "full/push/grouping",
        (0x9b0309ae1b57c239, 0x46c49ea6dc9f01ba),
    ),
    (
        "full/push/elevator",
        (0x7dab4e5918b6c74d, 0x11d8bf5e1a2dbc8f),
    ),
    ("full/push/window", (0xf645fbfe61bd2725, 0x9ca166f0a604ef7e)),
    ("rid/push", (0x0ccacaeb8ffc1a5f, 0xa363a7d38e6d7afe)),
    ("lanes/push", (0x5eb7122aebae0a3a, 0xfeadf377ff7a941f)),
    (
        "lanes/push/window",
        (0xc30d8af21a3ef08d, 0xd196e12ef676cb9f),
    ),
    ("tput/push", (0xf9877cc52798ad9f, 0xaa929179f80d1484)),
    ("pool24/push", (0x56e7e34c3b3e3099, 0x81bc1368cdbba976)),
    ("base", (0x9e8405b9dfe3a4ab, 0x14ffc8e690a4607d)),
    ("base/transient", (0xdaa46ecbb8b3c9bc, 0xbef7e41e2372f99d)),
    ("base/window", (0xd6d4c48c4b521726, 0xb115c25b89243636)),
];

/// `(cell name, (lifecycle digest, report digest without lifecycle))`,
/// computed by the commit before the trace ring was retired; the report
/// digests again when page subtotals moved the sums.
const LIFECYCLE_PINS: &[(&str, (u64, u64))] = &[
    (
        "q6x6/pull/grouping/2000us",
        (0x8d176c363b88cf96, 0x4d44e1548a023db5),
    ),
    (
        "q6x6/pull/grouping/15000us",
        (0xd140ce2bc206f91b, 0xb8e592217bd62401),
    ),
    (
        "q6x6/pull/attach/2000us",
        (0xa3e93cf041985d6e, 0xb7fd32706e21837f),
    ),
    (
        "q6x6/pull/attach/15000us",
        (0x634b6e4ee5fa04f1, 0x3ba1a4deb0b18f85),
    ),
    (
        "q6x6/pull/elevator/2000us",
        (0x8d176c363b88cf96, 0xecbc7e56522eb680),
    ),
    (
        "q6x6/pull/elevator/15000us",
        (0x701093b04b78ca5f, 0x0baeb075c5447a2e),
    ),
    (
        "q6x6/push/grouping/2000us",
        (0x30b9fe17b0f44535, 0xab995f00fb49be22),
    ),
    (
        "q6x6/push/grouping/15000us",
        (0x56a70c498b32546c, 0x99aa0159a875dc52),
    ),
    (
        "q6x6/push/attach/2000us",
        (0x30b9fe17b0f44535, 0x5853e05ada269448),
    ),
    (
        "q6x6/push/attach/15000us",
        (0xd425818e786215a6, 0x47552266e4fb6c35),
    ),
    (
        "q6x6/push/elevator/2000us",
        (0x30b9fe17b0f44535, 0x0c65d4dd6e9608ed),
    ),
    (
        "q6x6/push/elevator/15000us",
        (0xd425818e786215a6, 0x909bc7b96c029de3),
    ),
    (
        "q6x6/pull/transient",
        (0x3709a80a454054b8, 0xabebed9c2f74f91a),
    ),
    ("q6x6/pull/stalls", (0x0057dc60c05732ae, 0x4996d8e085b422e0)),
    (
        "q6x6/pull/prefetch",
        (0xbbc3691696946f4c, 0xde1885c1edaac639),
    ),
    (
        "q6x6/pull/prefetch+transient",
        (0x81f6c9a52bac9bd6, 0x904a25799fe88ae1),
    ),
    (
        "q6x6/pull/attach/window",
        (0x73b93699f19e2c0b, 0x160097a125d71ef1),
    ),
    (
        "q6x6/pull/prefetch+window",
        (0x7e54e1353e642d65, 0xd4718e8de4b1d768),
    ),
    (
        "q6x6/pull/window-kills-all",
        (0x26c8973bb1425eac, 0xc4f48aabec83aae1),
    ),
    ("q6x6/pull/tail", (0x0843bb80c6e5a424, 0x73a7c485c889b0ee)),
    (
        "q6x6/pull/attach/late-tail",
        (0x78336de943758fa6, 0x2487eefec36f1ad5),
    ),
    (
        "full/pull/grouping",
        (0x8bddbe4bb793cf5e, 0xe8dd9bb88b242884),
    ),
    (
        "full/pull/elevator",
        (0x1c2252d00293e90e, 0x808f745baa73e2bf),
    ),
    ("full/pull/window", (0x345a04775885fe60, 0x81e730d0625485d7)),
    ("rid/pull", (0x17360b5e6e0f7893, 0x3f5d5451aaa9529d)),
    ("lanes/pull", (0x9b496330effc9aaf, 0xcedb8bc9f3462101)),
    (
        "lanes/pull/window",
        (0xd07cd353578103db, 0x1a153168f8041a82),
    ),
    ("tput/pull", (0x8d69b867eca34953, 0x599c14869255f17b)),
    ("pool24/pull", (0xac55667ef4263606, 0x555ef6edb3a48ffa)),
    (
        "q6x6/push/transient",
        (0xe156bbddf04e1abd, 0x2ad23851533ae7ee),
    ),
    ("q6x6/push/stalls", (0x0976ab53da77d341, 0x048d7d750cd95317)),
    (
        "q6x6/push/prefetch",
        (0x52503f2315b5ad93, 0x2963b05575c7f68f),
    ),
    (
        "q6x6/push/prefetch+transient",
        (0x0617b865cebfb164, 0x7b506f60a9351dee),
    ),
    (
        "q6x6/push/attach/window",
        (0x4793a969582e4d4e, 0x07fb047e31311813),
    ),
    (
        "q6x6/push/prefetch+window",
        (0xe22f69c9667d9dd1, 0xc73863f47d4a7a7a),
    ),
    (
        "q6x6/push/window-kills-all",
        (0x1b373ce962988aef, 0x4e98f981ad202f19),
    ),
    ("q6x6/push/tail", (0x5544c96383260c4d, 0x2ace73368d9e72b7)),
    (
        "q6x6/push/attach/late-tail",
        (0x0cb5b9341df90a8d, 0xb10be82ce34ec60c),
    ),
    (
        "full/push/grouping",
        (0x7b1dd46e3c1bd284, 0x806dd49137e69501),
    ),
    (
        "full/push/elevator",
        (0x0dc034f80eaa35c2, 0xdd4fb5648b0da1bd),
    ),
    ("full/push/window", (0x3193f7098178f340, 0xdb5ef9a7dbb96d8d)),
    ("rid/push", (0x17360b5e6e0f7893, 0xb5daaf76e397e2c5)),
    ("lanes/push", (0xe20ef9e82f481ee2, 0xf2063b87aa7253d0)),
    (
        "lanes/push/window",
        (0x68c7783e09c60d21, 0x874b8fe57b26cef3),
    ),
    ("tput/push", (0x4248311b698aec0d, 0x73092c824d9312ff)),
    ("pool24/push", (0x2fac00e8b7883a64, 0xd185d3abf23d11cd)),
    ("base", (0xcbf29ce484222325, 0x9e8405b9dfe3a4ab)),
    ("base/transient", (0xcbf29ce484222325, 0xdaa46ecbb8b3c9bc)),
    ("base/window", (0xcbf29ce484222325, 0xd6d4c48c4b521726)),
];

/// FNV-1a of the run's lifecycle rows, one per scan in id order.
fn lifecycle_digest(r: &RunReport) -> u64 {
    let us = |t: Option<SimTime>| t.map_or_else(|| "-".to_string(), |t| t.as_micros().to_string());
    let rows: Vec<String> = lifecycles(&r.decisions)
        .iter()
        .map(|s| {
            format!(
                "{}|{}|{}|{}|{}|{}|{}|{}|{}",
                s.scan.0,
                s.query.as_deref().unwrap_or("-"),
                s.stream.map_or_else(|| "-".to_string(), |n| n.to_string()),
                s.placement.as_deref().unwrap_or("-"),
                us(s.start),
                us(s.finish),
                s.wraps,
                s.throttles,
                s.throttle_wait.as_micros()
            )
        })
        .collect();
    fnv1a(rows.join("\n").as_bytes())
}

/// FNV-1a of the report JSON without its lifecycle records: no `trace`
/// key, and no `ScanStarted`, `ScanWrapped` or `ScanEnded` decision.
fn report_digest_without_lifecycle(json: &str) -> u64 {
    use serde_json::{Map, Value};
    const LIFECYCLE: [&str; 3] = ["ScanStarted", "ScanWrapped", "ScanEnded"];
    let v: Value = serde_json::from_str(json).expect("report parses");
    let mut out = Map::new();
    for (k, v) in v.as_object().expect("report is an object").iter() {
        match (k, v) {
            ("trace", _) => {}
            ("decisions", Value::Array(records)) => {
                let kept = records.iter().filter(|r| {
                    let event = r.get("event").and_then(Value::as_object);
                    let kind = event.and_then(|e| e.first()).map(|(k, _)| k);
                    !kind.is_some_and(|k| LIFECYCLE.contains(&k))
                });
                out.insert(k, Value::Array(kept.cloned().collect()));
            }
            _ => out.insert(k, v.clone()),
        }
    }
    fnv1a(
        serde_json::to_string(&Value::Object(out))
            .unwrap()
            .as_bytes(),
    )
}

/// The report as the parent commit encoded it. Its encoder left out
/// `faults` when all zero, `policy`, `profile` and `push` when `null`
/// and `slo` when `[]`; the vendored `serde_json::Map` keeps insertion
/// order, so dropping those and re-encoding gives the parent's bytes.
fn parent_bytes(json: &str) -> String {
    use serde_json::{Map, Value};
    let v: Value = serde_json::from_str(json).expect("report parses");
    let mut out = Map::new();
    for (k, v) in v.as_object().expect("report is an object").iter() {
        let default = match k {
            "faults" => v
                .as_object()
                .is_some_and(|f| f.iter().all(|(_, n)| n.as_u64() == Some(0))),
            "policy" | "profile" | "push" => v.is_null(),
            "slo" => v.as_array().is_some_and(<[Value]>::is_empty),
            _ => false,
        };
        if !default {
            out.insert(k, v.clone());
        }
    }
    serde_json::to_string(&Value::Object(out)).expect("report encodes")
}

/// The matrix's database and cells.
/// The matrix database's month count.
const MONTHS: u32 = 36;

fn matrix() -> (Database, Vec<Cell>) {
    let tpch = TpchConfig {
        scale: 0.2,
        months: MONTHS,
        block_pages: 8,
        seed: 99,
    };
    let db = build_db(&tpch);
    let cells = cells(&db, &tpch);
    assert!(cells.len() >= 24, "matrix shrank to {} cells", cells.len());
    (db, cells)
}

#[test]
fn every_cell_serialises_to_the_parent_commits_bytes() {
    let (db, cells) = matrix();
    let show = |(report, spans): (u64, u64)| format!("(0x{report:016x}, 0x{spans:016x})");
    let mut table = String::new();
    let mut pins = String::new();
    let mut moved = Vec::new();
    for cell in &cells {
        let profiler = SpanProfiler::default();
        let hooks = RunHooks {
            profiler: Some(profiler.clone()),
            ..RunHooks::default()
        };
        let r = run_workload_hooked(&db, &cell.spec, hooks)
            .unwrap_or_else(|e| panic!("{}: {e}", cell.name));
        check_reach(&cell.name, cell.reach, &cell.spec, &r);
        let json = serde_json::to_string(&r).expect("report encodes");
        // The span tree minus its host-clock stamps.
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
        let spans = fnv1a(format!("{tree:?}").as_bytes());
        // Every section the parent left out when default loads back to
        // the same report.
        let parent = parent_bytes(&json);
        let back: RunReport = serde_json::from_str(&parent)
            .unwrap_or_else(|e| panic!("{}: parent-shaped report: {e}", cell.name));
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            json,
            "{}: the parent's shape does not load to this report",
            cell.name
        );
        let got = (fnv1a(parent.as_bytes()), spans);
        table.push_str(&format!("    (\"{}\", {}),\n", cell.name, show(got)));
        let pin = (
            lifecycle_digest(&r),
            report_digest_without_lifecycle(&parent),
        );
        pins.push_str(&format!(
            "    (\"{}\", (0x{:016x}, 0x{:016x})),\n",
            cell.name, pin.0, pin.1
        ));
        match LIFECYCLE_PINS.iter().find(|(n, _)| *n == cell.name) {
            Some((_, want)) if *want == pin => {}
            Some((_, want)) => moved.push(format!(
                "{}: lifecycle pins (0x{:016x}, 0x{:016x}) -> (0x{:016x}, 0x{:016x})",
                cell.name, want.0, want.1, pin.0, pin.1
            )),
            None => moved.push(format!("{}: no lifecycle pin", cell.name)),
        }
        match PARENT_DIGESTS.iter().find(|(n, _)| *n == cell.name) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => {
                moved.push(format!("{}: {} -> {}", cell.name, show(*want), show(got)))
            }
            None => moved.push(format!("{}: no parent digest", cell.name)),
        }
    }
    assert!(
        moved.is_empty()
            && PARENT_DIGESTS.len() == cells.len()
            && LIFECYCLE_PINS.len() == cells.len(),
        "{} moves over {} cells ({} digest rows, {} lifecycle pins):\n{}\n\
         this run's table:\n{table}\nthis run's lifecycle pins:\n{pins}",
        moved.len(),
        cells.len(),
        PARENT_DIGESTS.len(),
        LIFECYCLE_PINS.len(),
        moved.join("\n")
    );
}

/// `(cell name, digest)`: FNV-1a of [`without_answers`] of each cell's
/// profiled report, computed by the commit before whole-page steps
/// folded page subtotals. That change moves the last bits of sums and
/// nothing else, so everything but the answers must still match these —
/// in every cell but those of [`UNCHARGED_DIGESTS`].
const ANSWERLESS_DIGESTS: &[(&str, u64)] = &[
    ("q6x6/pull/grouping/2000us", 0xb488bcb1e8b2fb32),
    ("q6x6/pull/grouping/15000us", 0x9d80dbc408d674b6),
    ("q6x6/pull/attach/2000us", 0xe0ab197a03464d68),
    ("q6x6/pull/attach/15000us", 0xd08f74b4a60eb2fe),
    ("q6x6/pull/elevator/2000us", 0x30d18ee8a2080acf),
    ("q6x6/pull/elevator/15000us", 0xe2f68c41d319bf35),
    ("q6x6/push/grouping/2000us", 0x19e36705af12dd32),
    ("q6x6/push/grouping/15000us", 0x26ecfeccd0682591),
    ("q6x6/push/attach/2000us", 0x87a9d1458bac925c),
    ("q6x6/push/attach/15000us", 0xa7446d293aa98fcb),
    ("q6x6/push/elevator/2000us", 0x40f1db2881bd8c81),
    ("q6x6/push/elevator/15000us", 0xb5f596884b3d9815),
    ("q6x6/pull/transient", 0x83c3a14a843989e5),
    ("q6x6/pull/stalls", 0x792cb6af96037375),
    ("q6x6/pull/prefetch", 0x5445895df68dafbc),
    ("q6x6/pull/prefetch+transient", 0x745a1c4dcd2671dd),
    ("q6x6/pull/attach/window", 0x90354fa558100ac8),
    ("q6x6/pull/prefetch+window", 0xb6a86aaaf1feb14d),
    ("q6x6/pull/window-kills-all", 0xe6c345b682358c7a),
    ("q6x6/pull/tail", 0x9a50c1a5a7a42aa5),
    ("q6x6/pull/attach/late-tail", 0x2caa0098be2d28fb),
    ("full/pull/grouping", 0xe4402d4d3876f49f),
    ("full/pull/elevator", 0x6708f46371244b34),
    ("full/pull/window", 0xa372797b4a666fd1),
    ("rid/pull", 0xf047197d1250467e),
    ("lanes/pull", 0xf9914868c1a7cd48),
    ("lanes/pull/window", 0x00ac622ae477e368),
    ("tput/pull", 0xab06e380e061e712),
    ("pool24/pull", 0x38bc7b86bffc790c),
    ("q6x6/push/transient", 0x570b2bc69c7d999c),
    ("q6x6/push/stalls", 0xbc6d31aacac13761),
    ("q6x6/push/prefetch", 0x23749278d611923a),
    ("q6x6/push/prefetch+transient", 0xa9798862b81561fa),
    ("q6x6/push/attach/window", 0x70f861ed05a3c2d9),
    ("q6x6/push/prefetch+window", 0xe05689eb7550348b),
    ("q6x6/push/window-kills-all", 0x7030232103c3adfe),
    ("q6x6/push/tail", 0x312c1a8269240493),
    ("q6x6/push/attach/late-tail", 0xab899eeece5c2b35),
    ("full/push/grouping", 0x6ff311aab5b60a0a),
    ("full/push/elevator", 0x2f97463f5b6a49ad),
    ("full/push/window", 0x5c17c58ee35fb7cc),
    ("rid/push", 0xbe9faaacb79d9d06),
    ("lanes/push", 0x21f5ba1f2f83378d),
    ("lanes/push/window", 0xf2a6763d8a1f562a),
    ("tput/push", 0xe5f4c269ac274ea7),
    ("pool24/push", 0x7aac04ceffb99d65),
    ("base", 0x75a4cc34896ce3a7),
    ("base/transient", 0xef7e93aefecde330),
    ("base/window", 0x462bbf5d6f51a6f4),
];

/// `(cell name, digest)` of the cells whose fault plan kills reads for
/// good: FNV-1a of [`without`] each cell's profiled report every query's
/// `result` and `logical_reads`, computed by the same commit as
/// [`ANSWERLESS_DIGESTS`]. Since a fetch that dies partway charges its
/// owner for the pages it fixed, these cells' `logical_reads` moved (law
/// (v) below), and nothing else of them may.
const UNCHARGED_DIGESTS: &[(&str, u64)] = &[
    ("q6x6/pull/attach/window", 0x0f7fe199a59a78db),
    ("q6x6/pull/prefetch+window", 0x7f46dc39da4dcf9c),
    ("q6x6/pull/window-kills-all", 0x86b57c0da9ecb990),
    ("q6x6/pull/tail", 0x64bfd2ec7e25d41b),
    ("q6x6/pull/attach/late-tail", 0x225a7251f5841f8e),
    ("full/pull/window", 0x4ee86391e2771e1e),
    ("lanes/pull/window", 0x54169f9dd03e45f9),
    ("q6x6/push/attach/window", 0xac05d38bb86e0a23),
    ("q6x6/push/prefetch+window", 0xe96f1683af485f38),
    ("q6x6/push/window-kills-all", 0x2adfd3ec0feb3dcd),
    ("q6x6/push/tail", 0xf5de878a56492625),
    ("q6x6/push/attach/late-tail", 0xaadb3af0d1994ef7),
    ("full/push/window", 0x70f2c102d670633e),
    ("lanes/push/window", 0x44ad44afae1f562f),
    ("base/window", 0x9604880430a8024a),
];

/// [`parent_bytes`] of a report with `fields` removed from every query.
fn without(json: &str, fields: &[&str]) -> String {
    use serde_json::{Map, Value};
    let query = |q: &Value| {
        let mut out = Map::new();
        for (k, v) in q.as_object().expect("a query is an object").iter() {
            if !fields.contains(&k) {
                out.insert(k, v.clone());
            }
        }
        Value::Object(out)
    };
    let v: Value = serde_json::from_str(&parent_bytes(json)).expect("report parses");
    let mut out = Map::new();
    for (k, v) in v.as_object().expect("report is an object").iter() {
        match (k, v) {
            ("queries", Value::Array(queries)) => {
                out.insert(k, Value::Array(queries.iter().map(query).collect()))
            }
            _ => out.insert(k, v.clone()),
        }
    }
    serde_json::to_string(&Value::Object(out)).expect("report encodes")
}

#[test]
fn every_cell_but_its_answers_serialises_to_the_parent_commits_bytes() {
    let (db, cells) = matrix();
    let mut table = String::new();
    let mut moved = Vec::new();
    for cell in &cells {
        let hooks = RunHooks {
            profiler: Some(SpanProfiler::default()),
            ..RunHooks::default()
        };
        let r = run_workload_hooked(&db, &cell.spec, hooks)
            .unwrap_or_else(|e| panic!("{}: {e}", cell.name));
        let json = serde_json::to_string(&r).expect("report encodes");
        assert!(json.contains("\"result\":"), "{}: no answer", cell.name);
        let charged = UNCHARGED_DIGESTS.iter().any(|(n, _)| *n == cell.name);
        let (fields, pins): (&[&str], _) = match charged {
            true => (&["result", "logical_reads"], UNCHARGED_DIGESTS),
            false => (&["result"], ANSWERLESS_DIGESTS),
        };
        let got = fnv1a(without(&json, fields).as_bytes());
        table.push_str(&format!("    (\"{}\", 0x{got:016x}),\n", cell.name));
        match pins.iter().find(|(n, _)| *n == cell.name) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => moved.push(format!("{}: 0x{want:016x}", cell.name)),
            None => moved.push(format!("{}: no digest", cell.name)),
        }
    }
    assert!(
        moved.is_empty() && ANSWERLESS_DIGESTS.len() == cells.len(),
        "{} moves over {} cells ({} digest rows):\n{}\nthis run's table:\n{table}",
        moved.len(),
        cells.len(),
        ANSWERLESS_DIGESTS.len(),
        moved.join("\n")
    );
}

/// Run every cell and hand `check` each report, after checking that its
/// log, kept at the engine's default capacity, never filled and so
/// dropped nothing (a dropped record would make every count below a
/// lower bound only).
fn for_each_logged_cell(check: impl FnMut(&str, &RunReport)) {
    let (db, cells) = matrix();
    run_logged(&db, &cells, check);
}

/// [`for_each_logged_cell`] over the given cells.
fn run_logged(db: &Database, cells: &[Cell], mut check: impl FnMut(&str, &RunReport)) {
    for cell in cells {
        let r = run_workload(db, &cell.spec).unwrap_or_else(|e| panic!("{}: {e}", cell.name));
        assert!(
            r.decisions.len() < DEFAULT_DECISION_CAP,
            "{}: the log may have dropped records",
            cell.name
        );
        check(&cell.name, &r);
    }
}

/// Every sharing counter the report carries is a count or a sum over the
/// decision log — a second witness for each.
#[test]
fn every_cells_counters_rederive_from_its_decision_log() {
    for_each_logged_cell(|name, r| {
        let count = |kind: fn(&DecisionEvent) -> bool| {
            r.decisions.iter().filter(|d| kind(&d.event)).count() as u64
        };
        let s = &r.sharing;
        let placed = count(|e| {
            matches!(
                e,
                DecisionEvent::GroupStart { .. } | DecisionEvent::GroupJoin { .. }
            )
        });
        assert_eq!(s.scans_started, placed, "{name}: scans_started");
        let throttles = count(|e| matches!(e, DecisionEvent::Throttle { .. }));
        assert_eq!(s.waits_injected, throttles, "{name}: waits_injected");
        let logged_wait = r
            .decisions
            .iter()
            .filter_map(|d| match d.event {
                DecisionEvent::Throttle { wait, .. } => Some(wait),
                _ => None,
            })
            .fold(SimDuration::ZERO, |a, b| a + b);
        let query_wait = r
            .queries
            .iter()
            .fold(SimDuration::ZERO, |a, q| a + q.throttle_wait);
        assert_eq!(s.total_wait, logged_wait, "{name}: total_wait");
        assert_eq!(logged_wait, query_wait, "{name}: queries' throttle_wait");
        let ended = count(|e| matches!(e, DecisionEvent::ScanEnded { .. }));
        assert_eq!(s.scans_finished, ended, "{name}: scans_finished");
        let push = r.push.clone().unwrap_or_default();
        let attached = count(|e| matches!(e, DecisionEvent::DriverAttach { .. }));
        assert_eq!(push.drivers + push.attaches, attached, "{name}: attaches");
        let handoffs = count(|e| matches!(e, DecisionEvent::DriverHandoff { .. }));
        assert_eq!(push.handoffs, handoffs, "{name}: handoffs");
    });
}

/// Every started scan ends exactly once — normally or by a fault — and
/// the log names no scan after its end. Per scan, time never runs back.
///
/// One record is exempt from "after its end": the `DegradedMode` that
/// the eviction emits right after `ScanEvicted`, at the same instant. It
/// is about the run (how many scans faults took, how many still share),
/// and its `scan` field names the eviction that triggered it.
#[test]
fn every_cells_scans_start_and_end_exactly_once() {
    for_each_logged_cell(|name, r| {
        // Per scan: (started, ended, time of its latest event).
        let mut seen: BTreeMap<ScanId, (bool, bool, SimTime)> = BTreeMap::new();
        for d in &r.decisions {
            let scan = d.event.scan();
            let (started, ended, last) = seen.entry(scan).or_insert((false, false, d.at));
            let degraded = matches!(d.event, DecisionEvent::DegradedMode { .. });
            assert!(
                !*ended || (degraded && d.at == *last),
                "{name}: scan {} named after its end: {d:?}",
                scan.0
            );
            assert!(
                *last <= d.at,
                "{name}: scan {} went back in time: {d:?}",
                scan.0
            );
            *last = d.at;
            match d.event {
                DecisionEvent::ScanStarted { .. } => {
                    assert!(!*started, "{name}: scan {} started twice", scan.0);
                    *started = true;
                }
                DecisionEvent::ScanEnded { .. } | DecisionEvent::ScanEvicted { .. } => {
                    *ended = true
                }
                _ => {}
            }
        }
        for (scan, (started, ended, _)) in seen {
            assert_eq!(
                started, ended,
                "{name}: scan {} started {started}, ended {ended}",
                scan.0
            );
        }
    });
}

/// The conservation laws of ROADMAP item 13 that a finished report of a
/// run on `engine` is checked against here, each by the name
/// [`EXPECTED_VIOLATIONS`] uses. (i) One query is one thread: its CPU
/// fits in its elapsed time. (ii) The CPU breakdown partitions
/// `n_cpus × makespan`, and its busy half fits in it on its own:
/// `ExecWorld::breakdown` clamps idle and I/O wait at zero, which would
/// hide an overfull CPU in every share but the sum. (iv) The disks were
/// busy no longer than they were there. (v) Every pool fix is a hit or a
/// miss, and is charged to the query it was made for.
fn broken_laws(r: &RunReport, engine: &EngineConfig) -> Vec<&'static str> {
    let fixes = r.pool.logical_reads;
    let charged: u64 = r.queries.iter().map(|q| q.logical_reads).sum();
    let times = |n: u32| r.makespan.as_micros() * n as u64;
    let b = &r.breakdown;
    let busy = (b.user + b.system).as_micros();
    [
        (
            "(i) cpu <= end - start",
            r.queries.iter().all(|q| q.cpu <= q.end.since(q.start)),
        ),
        (
            "(ii) user + system <= n_cpus * makespan",
            busy <= times(engine.n_cpus),
        ),
        (
            "(ii) user + system + idle + io_wait == n_cpus * makespan",
            busy + (b.idle + b.io_wait).as_micros() == times(engine.n_cpus),
        ),
        (
            "(iv) disk busy <= n_disks * makespan",
            r.disk.busy.as_micros() <= times(engine.n_disks),
        ),
        (
            "(v) hits + misses == pool fixes",
            r.pool.hits + r.pool.misses == fixes,
        ),
        (CHARGED, charged == fixes),
    ]
    .into_iter()
    .filter_map(|(law, holds)| (!holds).then_some(law))
    .collect()
}

/// Law (v)'s second half. A fetch that dies partway has fixed every page
/// of its extent, and its owner is charged for them.
const CHARGED: &str = "(v) sum of query fixes == pool fixes";

/// Every (cell, law) a run breaks today, with why: the overlap cohort
/// under push (ROADMAP item 3). A change that mends one fails the test
/// below until its row is deleted here.
const EXPECTED_VIOLATIONS: [(&str, &str, &str); 1] = [(
    "overlap/push",
    "(i) cpu <= end - start",
    "item 3: a push rider's CPU is charged as if it ran beside the \
     driver, not after it",
)];

/// A cohort that reaches item 3's bug, which no matrix cell does: one
/// I/O-bound owner and two CPU-bound riders of one Q6 on a disk of 1 µs
/// seeks and transfers, under push (the riders' CPU outgrows their
/// elapsed time) and under pull (it does not).
fn overlap_cohorts(db: &Database) -> Vec<Cell> {
    let q6 = || q6(MONTHS as i64, 1);
    let queries = vec![
        q6(),
        with_cpu(q6(), CpuClass::cpu_bound()),
        with_cpu(q6(), CpuClass::cpu_bound()),
    ];
    let pool = scanshare_repro::tpch::workload::paper_pool_pages(db);
    [Pull, Push]
        .map(|d| {
            let mut spec = cohort(queries.clone(), 0, pool, sharing(Grouping, d));
            spec.engine.disk.seek = SimDuration::from_micros(1);
            spec.engine.disk.transfer_per_page = SimDuration::from_micros(1);
            let tag = if d == Pull { "pull" } else { "push" };
            Cell {
                name: format!("overlap/{tag}"),
                spec,
                reach: Reach::Any,
            }
        })
        .into()
}

/// Laws (i), (ii), (iv) and (v) of item 13 over every cell and the
/// overlap cohorts, each cell's report against its own spec: each holds,
/// or the (cell, law) pair is an expected violation.
#[test]
fn every_cell_keeps_the_conservation_laws_or_is_listed() {
    let (db, mut cells) = matrix();
    cells.extend(overlap_cohorts(&db));
    let mut broken = Vec::new();
    run_logged(&db, &cells, |name, r| {
        let cell = cells.iter().find(|c| c.name == name).expect("a cell");
        broken.extend(
            broken_laws(r, &cell.spec.engine)
                .into_iter()
                .map(|law| (name.to_string(), law)),
        );
    });
    let mut expected: Vec<(String, &str)> = EXPECTED_VIOLATIONS
        .iter()
        .map(|&(cell, law, _)| (cell.to_string(), law))
        .collect();
    broken.sort_unstable();
    expected.sort_unstable();
    assert_eq!(broken, expected);
}
