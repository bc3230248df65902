//! The experiment table: every table, figure and ablation as one row.
//!
//! Each row's `#[derive(Serialize)]` struct *is* its JSON schema, field
//! order included — `results/*.json` is gated byte for byte, so a field
//! moves only on purpose. Claim bounds are calibrated, not copied: each
//! holds at (scale, seed) = (1.0, 42), (0.2, 42) and (0.2, 7) unless it
//! says from which scale it is asserted, and where the simulator does
//! not reach the paper's magnitude the claim records the gap instead of
//! loosening the band.

use scanshare::placement::{
    best_start_optimal, best_start_practical, calculate_reads, reads_for_ranges, Trace,
};
use scanshare::{DeliveryMode, PlacementStrategy, SharingConfig, SharingPolicyKind};
use scanshare_engine::{
    Access, AggSpec, CpuClass, Database, EngineConfig, FaultsConfig, Pred, Query, RunReport,
    ScanSpec, SharingMode, Stream, WorkloadSpec,
};
use scanshare_prng::Rng;
use scanshare_relstore::{ColType, Column, Schema, Value};
use scanshare_storage::{ReplacementPolicy, SimDuration, TimeSeries, PAGE_SIZE};
use scanshare_tpch::gen::lineitem_cols as li;
use scanshare_tpch::workload::paper_pool_pages;
use scanshare_tpch::{q1, q6, staggered_workload, throughput_workload, TpchConfig, QUERY_NAMES};
use serde::Serialize;

use super::Cmp::{Eq, Ge, Gt, Le};
use super::{claim, Ctx, Experiment, Output, Run, Variant, BASE, SS};

/// Every experiment, in the order `exp all` runs them.
pub static TABLE: &[Experiment] = &[
    Experiment {
        id: "table1",
        artifact: "Table 1",
        title: "5-stream TPC-H throughput: end-to-end, disk-read and disk-seek gains",
        paper: "gains of 21 % end to end, 33 % in disk reads, 34 % in disk seeks",
        file: "table1.json",
        in_all: true,
        specs: pair5,
        project: table1,
        claims: &[
            claim("end_to_end_gain_pct", Gt, 0.0),
            claim("disk_read_gain_pct", Gt, 0.0)
                .gap("29 % at scale 1.0: base already coalesces a scan's own 16-page extents"),
            claim("disk_seek_gain_pct", Gt, 0.0).gap("25 % at scale 1.0, for the same reason"),
        ],
    },
    Experiment {
        id: "fig15",
        artifact: "Fig 15",
        title: "3 staggered Q6 streams, I/O-bound (breakdown: user, system, idle, iowait %)",
        paper: "I/O wait reduced by half, user share up, each run gains > 50 %",
        file: "fig15.json",
        in_all: true,
        specs: |ctx| staggered_q6(ctx, BASE, SS),
        project: fig15,
        claims: &[
            claim("iowait_drop_pts", Gt, 0.0)
                .gap("55.8 % -> 41.4 % at scale 1.0: a quarter, not a half"),
            claim("user_rise_pts", Gt, 0.0),
            claim("min_run_gain_pct", Ge, 40.0)
                .gap("46.2-48.3 % at scale 1.0: the band is what the simulator reaches, not 50 %"),
        ],
    },
    Experiment {
        id: "fig16",
        artifact: "Fig 16",
        title: "3 staggered Q1 streams, CPU-bound (breakdown: user, system, idle, iowait %)",
        paper: "each run still improves, by less than Q6's; system time drops (fewer reads)",
        file: "fig16.json",
        in_all: true,
        // Fig 15's pair rides along (a fraction of a second) so the row
        // can say its gains are the smaller ones.
        specs: |ctx| {
            let mut v = staggered3(ctx, &q1(), BASE, SS);
            v.extend(staggered_q6(ctx, "Q6 base", "Q6 scan-sharing"));
            v
        },
        project: fig16,
        claims: &[
            claim("min_run_gain_pct", Gt, 0.0),
            claim("gain_below_fig15_pts", Gt, 0.0),
            claim("sys_time_saved_s", Gt, 0.0),
        ],
    },
    Experiment {
        id: "fig17",
        artifact: "Fig 17",
        title: "KB read from disk per time unit, base vs scan-sharing (5-stream TPC-H)",
        paper: "same jitter, lower reads in most time units, and the run ends sooner",
        file: "fig17.json",
        in_all: true,
        specs: pair5,
        project: fig17,
        claims: &[claim("buckets_saved", Gt, 0.0), claim("kb_saved", Gt, 0.0)],
    },
    Experiment {
        id: "fig18",
        artifact: "Fig 18",
        title: "disk seeks per time unit, base vs scan-sharing (5-stream TPC-H)",
        paper: "seeks much reduced during most time intervals",
        file: "fig18.json",
        in_all: true,
        specs: pair5,
        project: fig18,
        claims: &[
            claim("buckets_saved", Gt, 0.0),
            claim("seeks_saved", Gt, 0.0),
        ],
    },
    Experiment {
        id: "fig19",
        artifact: "Fig 19",
        title: "per-stream gains of the 5-stream TPC-H run",
        paper: "each stream gained similarly",
        file: "fig19.json",
        in_all: true,
        specs: pair5,
        project: fig19,
        claims: &[
            claim("min_stream_gain_pct", Gt, 0.0),
            claim("gain_spread_pts", Le, 5.0),
        ],
    },
    Experiment {
        id: "fig20",
        artifact: "Fig 20",
        title: "average per-query execution time of the 5-stream TPC-H run",
        paper: "gains vary per query but no query shows a negative effect",
        file: "fig20.json",
        in_all: true,
        specs: pair5,
        project: fig20,
        claims: &[claim("min_query_gain_pct", Ge, 0.0)],
    },
    Experiment {
        id: "fig8_9",
        artifact: "Fig 8/9",
        title: "sharing-potential estimator: the paper's worked example, then calculateReads live",
        paper: "195 reads from the front, 180 near scan A, 240 at worst: E is placed near A",
        file: "fig8_9.json",
        in_all: true,
        specs: |_| Vec::new(),
        project: fig8_9,
        claims: &[
            claim("start_at_front_reads", Eq, 195.0),
            claim("start_near_a_reads", Eq, 180.0),
            claim("worst_case_reads", Eq, 240.0),
            claim("live_reads_saved_near_a", Gt, 0.0),
        ],
    },
    Experiment {
        id: "overhead",
        artifact: "E0",
        title: "single-stream TPC-H, sharing on vs off: nothing to share, so nothing may change",
        paper: "overhead well below 1 % of the end-to-end time",
        file: "overhead.json",
        in_all: true,
        specs: |ctx| {
            vec![
                tput(ctx, BASE, 1, SharingMode::Base),
                tput(ctx, SS, 1, ss_mode()),
            ]
        },
        project: overhead,
        claims: &[claim("abs_overhead_pct", Le, 1.0)],
    },
    Experiment {
        id: "ablation",
        artifact: "A1",
        title: "placement / throttling / priorities, each alone and together (5-stream TPC-H)",
        paper: "(ours) each mechanism helps alone; placement delivers the bulk of the gain",
        file: "ablation.json",
        in_all: true,
        specs: ablation_specs,
        project: ablation,
        claims: &[
            claim("placement_only_gain_pct", Ge, 0.0),
            // At scale 0.2 the 5 % pool is under four extents and throttling
            // without placement merely delays (-4.8 % / -1.7 % at seeds 42 / 7).
            claim("throttling_only_gain_pct", Ge, 0.0).from_scale(1.0),
            claim("priorities_only_gain_pct", Ge, 0.0),
            // "All three beat each alone" does not hold (23.8 vs 23.7 % at
            // scale 1.0): throttling trades a little time for fairness.
            claim("placement_share_of_full", Ge, 0.8),
        ],
    },
    Experiment {
        id: "scope",
        artifact: "A2",
        title: "sharing scope: table scans only (ICDE'07) vs + index scans (VLDB'07)",
        paper: "(ours) each scope helps alone; index-scan sharing adds to table-scan sharing",
        file: "scope.json",
        in_all: true,
        specs: scope_specs,
        project: scope,
        claims: &[
            claim("table_only_gain_pct", Gt, 0.0),
            claim("index_only_gain_pct", Gt, 0.0),
            claim("index_on_top_pts", Ge, 0.0),
        ],
    },
    Experiment {
        id: "fairness",
        artifact: "A3",
        title: "fairness-cap sweep (the 80 % threshold of section 7.2), 5-stream TPC-H",
        paper: "80 % came from experience: a safety valve, no query regresses under it",
        file: "fairness.json",
        in_all: true,
        specs: fairness_specs,
        project: fairness,
        claims: &[
            claim("worst_regression_at_80_pct", Ge, 0.0),
            // At scale 0.2 / seed 42 the uncapped and the 20 % settings slow
            // one query by 12-17 % — the mixes the valve exists for — so "at
            // any cap" is asserted at the documented scale.
            claim("worst_regression_any_cap_pct", Ge, 0.0).from_scale(1.0),
        ],
    },
    Experiment {
        id: "placement",
        artifact: "A4",
        title: "practical O(S^2) vs optimal O(S^3) placement (5-stream TPC-H)",
        paper: "(ours) the optimal search runs, and buys nothing over the shipped practical one",
        file: "placement.json",
        in_all: true,
        specs: placement_specs,
        project: placement,
        claims: &[
            claim("optimal_placements", Gt, 0.0),
            claim("practical_lead_pts", Ge, 0.0),
        ],
    },
    Experiment {
        id: "policies",
        artifact: "E-POL",
        title: "general-purpose replacement (LRU, LRU-2) vs coordinated sharing (5-stream TPC-H)",
        paper: "(section 2) a smarter victimizer cannot coordinate ordered scans; sharing can",
        file: "policies.json",
        in_all: true,
        specs: |ctx| {
            let lru2 = SharingMode::BasePolicy(ReplacementPolicy::Lru2);
            vec![
                tput(ctx, "LRU (vanilla)", 5, SharingMode::Base),
                tput(ctx, "LRU-2", 5, lru2),
                tput(ctx, "scan-sharing", 5, ss_mode()),
            ]
        },
        project: policies,
        claims: &[claim("ss_lead_over_lru2_pts", Gt, 0.0)],
    },
    // The gate row: the workload ignores the experiment scale and seed,
    // every number is written exactly, and `exp all`'s byte comparison
    // with `results/smoke.json` is the behaviour gate. `policy` reads its
    // base and grouping runs from the memo.
    Experiment {
        id: "smoke",
        artifact: "E-SMOKE",
        title: "pinned 3-stream smoke pair (tiny database): pull, push, and both under fault plans",
        paper: "(ours) sharing gains on the pinned pair; an empty fault plan moves no number",
        file: "smoke.json",
        in_all: true,
        specs: smoke_specs,
        project: smoke,
        claims: &[
            claim("gain_time_pct", Gt, 0.0),
            claim("pull_empty_plan_drift", Eq, 0.0),
            claim("push_empty_plan_drift", Eq, 0.0),
            claim("transient_gain_time_pct", Gt, 0.0),
            claim("transient_scans_aborted", Eq, 0.0),
        ],
    },
    Experiment {
        id: "policy",
        artifact: "A9",
        title:
            "sharing policies: grouping vs attach vs elevator (pinned smoke spec, then 5-stream)",
        paper: "(ours) smoke worst stretch: grouping 1.10x < attach 1.30x < elevator 1.58x",
        file: "policy_ablation.json",
        in_all: true,
        specs: policy_specs,
        project: policy,
        claims: &[
            claim("smoke_stretch_attach_minus_grouping", Gt, 0.0),
            claim("smoke_stretch_elevator_minus_attach", Gt, 0.0),
        ],
    },
    Experiment {
        id: "prefetch",
        artifact: "A5",
        title: "sharing with one-extent read-ahead on in both modes (5-stream TPC-H)",
        paper: "(ours) the sharing gain is not an artifact of synchronous I/O",
        file: "prefetch.json",
        in_all: true,
        specs: prefetch_specs,
        project: prefetch,
        claims: &[claim("gain_with_prefetch_pct", Gt, 0.0)],
    },
    Experiment {
        id: "rid",
        artifact: "E-RID",
        title: "three overlapping range scans through a correlated but unclustered RID index",
        paper: "the machinery \"can be modified for other index scans very easily\"",
        file: "rid.json",
        in_all: true,
        specs: rid_specs,
        project: rid,
        claims: &[
            claim("min_scan_gain_pct", Gt, 0.0),
            claim("seeks_saved", Gt, 0.0),
        ],
    },
    Experiment {
        id: "streams",
        artifact: "A7",
        title: "scaling with the number of streams (TPC-H mix): base vs pull vs push sharing",
        paper: "reduced disk utilization scales to more streams: the gain widens with load",
        file: "streams.json",
        in_all: true,
        specs: |ctx| streams_specs(ctx, &[1, 2, 3, 5, 8]),
        project: streams,
        claims: &[claim("min_pull_gain_step_pts", Ge, 0.0)],
    },
    // Minutes at its documented scale 0.1 (512 streams x three modes) and
    // far longer at 1.0, so it is run by name and keeps that recipe.
    Experiment {
        id: "streams_push",
        artifact: "A7-push",
        title: "pull vs push delivery at high stream counts (recipe: SCANSHARE_SCALE=0.1)",
        paper: "(ours) push gain > pull gain at 128 and 512 streams, fixes per page <= 1.2",
        file: "streams_push.json",
        in_all: false,
        specs: |ctx| streams_specs(ctx, &[32, 128, 512]),
        project: streams,
        claims: &[
            claim("min_push_lead_top2_pts", Gt, 0.0),
            claim("max_push_fixes_per_page", Le, 1.2),
        ],
    },
    Experiment {
        id: "attach",
        artifact: "A8",
        title:
            "QPipe-style attach [19] vs the full mechanism: 4 overlapping scans, same/mixed speeds",
        paper: "attach works for similar speeds; with mixed speeds scans drift apart",
        file: "attach.json",
        in_all: true,
        specs: attach_specs,
        project: attach,
        claims: &[
            claim("homogeneous_attach_shortfall_pts", Le, 1.0),
            claim("heterogeneous_full_lead_pts", Gt, 0.0),
        ],
    },
    Experiment {
        id: "disks",
        artifact: "A6",
        title: "sharing gain vs storage parallelism: 1-16 striped disks (5-stream TPC-H)",
        paper: "(ours) the time gain fades once CPU-bound; the read savings persist",
        file: "disks.json",
        in_all: true,
        specs: disks_specs,
        project: disks,
        claims: &[
            claim("min_read_gain_pct", Ge, 20.0),
            claim("gain_fade_1_to_16_disks_pts", Gt, 0.0),
        ],
    },
];

/// The full-featured scan-sharing mode (pool size filled in by the run).
fn ss_mode() -> SharingMode {
    SharingMode::ScanSharing(SharingConfig::new(0))
}

/// Full scan sharing with push delivery: one group driver fixes each
/// page once for all its consumers.
fn push_mode() -> SharingMode {
    SharingMode::ScanSharing(SharingConfig {
        delivery: DeliveryMode::Push,
        ..SharingConfig::new(0)
    })
}

/// Percent improvement of `ss` over `base`.
fn pct_gain(base: f64, ss: f64) -> f64 {
    scanshare_engine::metrics::gain(base, ss) * 100.0
}

fn min_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

fn max_of(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn secs(run: &RunReport) -> f64 {
    run.makespan.as_secs_f64()
}

/// The TPC-H throughput workload with `streams` streams in `mode`, on
/// the experiment database.
fn tput(ctx: &mut Ctx, label: impl Into<String>, streams: usize, mode: SharingMode) -> Variant {
    let db = ctx.exp_db();
    let spec = throughput_workload(&db, streams, ctx.cfg.months as i64, ctx.cfg.seed, mode);
    Variant::new(label, &db, spec)
}

/// The paper's headline comparison — 5 TPC-H streams, sharing off and
/// on — which Table 1 and Figures 17–20 all read.
fn pair5(ctx: &mut Ctx) -> Vec<Variant> {
    vec![
        tput(ctx, BASE, 5, SharingMode::Base),
        tput(ctx, SS, 5, ss_mode()),
    ]
}

/// Three copies of `query`, staggered, sharing off and on. The paper
/// staggers starts by 10 s on a 100 GB database; a fixed fraction (15 %)
/// of the query's solo runtime keeps the same overlap geometry at any
/// scale.
fn staggered3(ctx: &mut Ctx, query: &Query, base: &str, ss: &str) -> Vec<Variant> {
    let db = ctx.exp_db();
    let solo = staggered_workload(&db, query, 1, SimDuration::ZERO, SharingMode::Base);
    let solo = ctx.run_all(vec![Variant::new(
        format!("{} solo", query.name),
        &db,
        solo,
    )]);
    let us = (solo[0].makespan.as_micros() as f64 * 0.15) as u64;
    let stagger = SimDuration::from_micros(us.max(1));
    let spec = |mode| staggered_workload(&db, query, 3, stagger, mode);
    vec![
        Variant::new(base, &db, spec(SharingMode::Base)),
        Variant::new(ss, &db, spec(ss_mode())),
    ]
}

/// Figure 15's workload: [`staggered3`] of this seed's Q6.
fn staggered_q6(ctx: &mut Ctx, base: &str, ss: &str) -> Vec<Variant> {
    let q6 = q6(ctx.cfg.months as i64, ctx.cfg.seed);
    staggered3(ctx, &q6, base, ss)
}

/// Per-stream elapsed seconds of a base/sharing pair, and each stream's
/// gain.
fn stream_times(rb: &RunReport, rs: &RunReport) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let elapsed =
        |r: &RunReport| -> Vec<f64> { r.stream_elapsed.iter().map(|d| d.as_secs_f64()).collect() };
    let (b, s) = (elapsed(rb), elapsed(rs));
    let gains = b.iter().zip(&s).map(|(&b, &s)| pct_gain(b, s)).collect();
    (b, s, gains)
}

/// `streams` over a `pool_pages` pool on the default machine model, no
/// faults, no SLOs.
fn workload(streams: Vec<Stream>, pool_pages: usize, mode: SharingMode) -> WorkloadSpec {
    WorkloadSpec {
        streams,
        pool_pages,
        engine: EngineConfig::default(),
        mode,
        faults: Default::default(),
        slo: Default::default(),
    }
}

/// A one-scan query summing column `sum_col` over `access`, no predicate.
fn sum_scan(name: &str, table: &str, access: Access, sum_col: usize, cpu: CpuClass) -> Query {
    let scan = ScanSpec {
        table: table.into(),
        access,
        pred: Pred::True,
        agg: AggSpec::sums(vec![sum_col]),
        cpu,
        require_order: false,
        query_priority: Default::default(),
        repeat: 1,
    };
    Query::single(name, scan)
}

/// Render a compact ASCII bar chart of a series (re-binned to `bins`).
fn ascii_series(label: &str, series: &TimeSeries, bins: usize, peak: u64) -> String {
    let data = series.rebin(bins);
    let peak = peak.max(1);
    let ramp: &[u8] = b" .:-=+*#%@";
    let mut out = format!("{label:>6} |");
    for v in &data {
        let h = ((v * 9) / peak).min(9) as usize;
        out.push(ramp[h] as char);
    }
    out.push('|');
    out
}

/// The base and sharing series as two ASCII strips on one scale, and by
/// how many time buckets the sharing run ends sooner.
fn series_pair(out: Output, base: &TimeSeries, ss: &TimeSeries) -> Output {
    let peak = base.buckets().iter().chain(ss.buckets()).copied().max();
    let peak = peak.unwrap_or(1);
    out.note(ascii_series("base", base, 64, peak))
        .note(ascii_series("SS", ss, 64, peak))
        .fact(
            "buckets_saved",
            base.buckets().len() as f64 - ss.buckets().len() as f64,
        )
}

#[derive(Serialize)]
struct Table1 {
    end_to_end_gain_pct: f64,
    disk_read_gain_pct: f64,
    disk_seek_gain_pct: f64,
    base_makespan_s: f64,
    ss_makespan_s: f64,
    base_pages_read: u64,
    ss_pages_read: u64,
    base_seeks: u64,
    ss_seeks: u64,
    throttle_waits: u64,
    scans_joined: u64,
}

fn table1(r: &[Run]) -> Output {
    let (rb, rs) = (&r[0], &r[1]);
    Output::new(&Table1 {
        end_to_end_gain_pct: pct_gain(secs(rb), secs(rs)),
        disk_read_gain_pct: pct_gain(rb.disk.pages_read as f64, rs.disk.pages_read as f64),
        disk_seek_gain_pct: pct_gain(rb.disk.seeks as f64, rs.disk.seeks as f64),
        base_makespan_s: secs(rb),
        ss_makespan_s: secs(rs),
        base_pages_read: rb.disk.pages_read,
        ss_pages_read: rs.disk.pages_read,
        base_seeks: rb.disk.seeks,
        ss_seeks: rs.disk.seeks,
        throttle_waits: rs.sharing.waits_injected,
        scans_joined: rs.sharing.scans_joined,
    })
}

#[derive(Serialize)]
struct Fig15 {
    base_breakdown_pct: (f64, f64, f64, f64),
    ss_breakdown_pct: (f64, f64, f64, f64),
    base_run_times_s: Vec<f64>,
    ss_run_times_s: Vec<f64>,
    per_run_gain_pct: Vec<f64>,
}

fn fig15(r: &[Run]) -> Output {
    let (rb, rs) = (&r[0], &r[1]);
    let (base_run_times_s, ss_run_times_s, per_run_gain_pct) = stream_times(rb, rs);
    let (base, ss) = (rb.breakdown.percentages(), rs.breakdown.percentages());
    let min_gain = min_of(per_run_gain_pct.iter().copied());
    Output::new(&Fig15 {
        base_breakdown_pct: base,
        ss_breakdown_pct: ss,
        base_run_times_s,
        ss_run_times_s,
        per_run_gain_pct,
    })
    .fact("iowait_drop_pts", base.3 - ss.3)
    .fact("user_rise_pts", ss.0 - base.0)
    .fact("min_run_gain_pct", min_gain)
}

#[derive(Serialize)]
struct Fig16 {
    base_breakdown_pct: (f64, f64, f64, f64),
    ss_breakdown_pct: (f64, f64, f64, f64),
    base_run_times_s: Vec<f64>,
    ss_run_times_s: Vec<f64>,
    per_run_gain_pct: Vec<f64>,
    base_sys_s: f64,
    ss_sys_s: f64,
}

fn fig16(r: &[Run]) -> Output {
    let (rb, rs) = (&r[0], &r[1]);
    let (base_run_times_s, ss_run_times_s, per_run_gain_pct) = stream_times(rb, rs);
    let gains = per_run_gain_pct.clone();
    let fig15_min = min_of(stream_times(&r[2], &r[3]).2);
    let row = Fig16 {
        base_breakdown_pct: rb.breakdown.percentages(),
        ss_breakdown_pct: rs.breakdown.percentages(),
        base_run_times_s,
        ss_run_times_s,
        per_run_gain_pct,
        base_sys_s: rb.breakdown.system.as_secs_f64(),
        ss_sys_s: rs.breakdown.system.as_secs_f64(),
    };
    Output::new(&row)
        .fact("min_run_gain_pct", min_of(gains.iter().copied()))
        .fact("gain_below_fig15_pts", fig15_min - max_of(gains))
        .fact("sys_time_saved_s", row.base_sys_s - row.ss_sys_s)
}

#[derive(Serialize)]
struct Fig17 {
    bucket_seconds: f64,
    base_kb_per_bucket: Vec<u64>,
    ss_kb_per_bucket: Vec<u64>,
    base_total_kb: u64,
    ss_total_kb: u64,
}

fn fig17(r: &[Run]) -> Output {
    let (rb, rs) = (&r[0], &r[1]);
    let kb = |series: &TimeSeries| -> Vec<u64> {
        let pages = series.buckets().iter();
        pages
            .map(|&pages| pages * PAGE_SIZE as u64 / 1024)
            .collect()
    };
    let (base_kb, ss_kb) = (kb(&rb.read_series), kb(&rs.read_series));
    let row = Fig17 {
        bucket_seconds: rb.read_series.bucket_us() as f64 / 1e6,
        base_total_kb: base_kb.iter().sum(),
        ss_total_kb: ss_kb.iter().sum(),
        base_kb_per_bucket: base_kb,
        ss_kb_per_bucket: ss_kb,
    };
    let out = Output::new(&row).fact(
        "kb_saved",
        row.base_total_kb as f64 - row.ss_total_kb as f64,
    );
    series_pair(out, &rb.read_series, &rs.read_series)
}

#[derive(Serialize)]
struct Fig18 {
    bucket_seconds: f64,
    base_seeks_per_bucket: Vec<u64>,
    ss_seeks_per_bucket: Vec<u64>,
    base_total_seeks: u64,
    ss_total_seeks: u64,
}

fn fig18(r: &[Run]) -> Output {
    let (rb, rs) = (&r[0], &r[1]);
    let out = Output::new(&Fig18 {
        bucket_seconds: rb.seek_series.bucket_us() as f64 / 1e6,
        base_seeks_per_bucket: rb.seek_series.buckets().to_vec(),
        ss_seeks_per_bucket: rs.seek_series.buckets().to_vec(),
        base_total_seeks: rb.disk.seeks,
        ss_total_seeks: rs.disk.seeks,
    })
    .fact("seeks_saved", rb.disk.seeks as f64 - rs.disk.seeks as f64);
    series_pair(out, &rb.seek_series, &rs.seek_series)
}

#[derive(Serialize)]
struct Fig19 {
    base_stream_s: Vec<f64>,
    ss_stream_s: Vec<f64>,
    gain_pct: Vec<f64>,
}

fn fig19(r: &[Run]) -> Output {
    let (base_stream_s, ss_stream_s, gain_pct) = stream_times(&r[0], &r[1]);
    let min = min_of(gain_pct.iter().copied());
    let max = max_of(gain_pct.iter().copied());
    Output::new(&Fig19 {
        base_stream_s,
        ss_stream_s,
        gain_pct,
    })
    .fact("min_stream_gain_pct", min)
    .fact("gain_spread_pts", max - min)
}

#[derive(Serialize)]
struct Fig20Row {
    query: String,
    base_avg_s: f64,
    ss_avg_s: f64,
    gain_pct: f64,
}

/// A query template's average execution time in a run.
fn avg_s(run: &RunReport, query: &str) -> f64 {
    run.avg_query_time(query).expect("query ran").as_secs_f64()
}

fn fig20(r: &[Run]) -> Output {
    let row = |name: &&str| {
        let (base_avg_s, ss_avg_s) = (avg_s(&r[0], name), avg_s(&r[1], name));
        Fig20Row {
            query: name.to_string(),
            base_avg_s,
            ss_avg_s,
            gain_pct: pct_gain(base_avg_s, ss_avg_s),
        }
    };
    let rows: Vec<Fig20Row> = QUERY_NAMES.iter().map(row).collect();
    let gains = rows.iter().map(|q| q.gain_pct);
    Output::new(&rows).fact("min_query_gain_pct", min_of(gains))
}

#[derive(Serialize)]
struct Fig89 {
    start_at_front_reads: u64,
    start_near_a_reads: u64,
    worst_case_reads: u64,
    front_saving_pct: f64,
    near_a_saving_pct: f64,
    live_front_reads: f64,
    live_near_a_reads: f64,
    practical_choice_member: usize,
    optimal_start: f64,
}

fn fig8_9(_: &[Run]) -> Output {
    // The paper's accounting (Figure 10, line 10).
    let front = reads_for_ranges(&[(15, 3), (30, 1), (15, 2), (20, 3), (10, 3)]);
    let near_a = reads_for_ranges(&[(15, 2), (20, 2), (40, 2), (15, 2)]);
    let worst = reads_for_ranges(&[(15, 3), (30, 2), (30, 3), (5, 3), (10, 3)]);

    // The same decision taken live by calculateReads, in the spirit of
    // Figures 8/9: A is mid-range with the same speed as the new scan E;
    // C is far ahead and slower. Starting E at the front means scanning
    // cold and trailing A by 300 pages (far beyond the pool); starting at
    // A's location shares A's whole remaining range.
    let a = Trace::new(300.0, 100.0, 1300.0);
    let c = Trace::new(900.0, 60.0, 2000.0);
    let members = [a, c];
    let (pool, speed, pages) = (120.0, 100.0, 800.0);
    let at_front = calculate_reads(&members, Trace::new(0.0, speed, pages), pool);
    let near_a_live = calculate_reads(&members, Trace::new(a.pos0, speed, a.pos0 + pages), pool);
    let practical =
        best_start_practical(&members, speed, pages, pool).expect("sharing is available");
    let optimal =
        best_start_optimal(&members, speed, pages, pool, (0.0, 1000.0)).expect("nonempty");
    Output::new(&Fig89 {
        start_at_front_reads: front,
        start_near_a_reads: near_a,
        worst_case_reads: worst,
        front_saving_pct: (1.0 - front as f64 / worst as f64) * 100.0,
        near_a_saving_pct: (1.0 - near_a as f64 / worst as f64) * 100.0,
        live_front_reads: at_front.reads,
        live_near_a_reads: near_a_live.reads,
        practical_choice_member: practical.member,
        optimal_start: optimal.start,
    })
    .fact(
        "live_reads_saved_near_a",
        at_front.reads - near_a_live.reads,
    )
}

#[derive(Serialize)]
struct Overhead {
    base_s: f64,
    ss_s: f64,
    overhead_pct: f64,
    base_reads: u64,
    ss_reads: u64,
}

/// The manager's *decisions* cost no virtual time (as in the paper, the
/// calls are cheap; their host-time cost is `benchmark/`'s
/// `core.manager.*_ns` drives'): what the row verifies is that placement
/// and priorities never hurt a lone stream.
fn overhead(r: &[Run]) -> Output {
    let (rb, rs) = (&r[0], &r[1]);
    let overhead_pct = (secs(rs) / secs(rb) - 1.0) * 100.0;
    Output::new(&Overhead {
        base_s: secs(rb),
        ss_s: secs(rs),
        overhead_pct,
        base_reads: rb.disk.pages_read,
        ss_reads: rs.disk.pages_read,
    })
    .fact("abs_overhead_pct", overhead_pct.abs())
}

#[derive(Serialize)]
struct AblationRow {
    variant: String,
    makespan_s: f64,
    pages_read: u64,
    seeks: u64,
    end_to_end_gain_pct: f64,
    read_gain_pct: f64,
}

fn ablation_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let mut v = vec![tput(ctx, BASE, 5, SharingMode::Base)];
    for (label, placement, throttling, priorities) in [
        ("placement only", true, false, false),
        ("throttling only", false, true, false),
        ("priorities only", false, false, true),
        ("placement+throttling", true, true, false),
        ("all (full SS)", true, true, true),
    ] {
        let mode = SharingMode::ScanSharing(SharingConfig {
            enable_placement: placement,
            enable_throttling: throttling,
            enable_priorities: priorities,
            ..SharingConfig::new(0)
        });
        v.push(tput(ctx, label, 5, mode));
    }
    v
}

fn ablation(r: &[Run]) -> Output {
    let base = &r[0];
    let rows: Vec<AblationRow> = r
        .iter()
        .map(|run| AblationRow {
            variant: run.label.clone(),
            makespan_s: secs(run),
            pages_read: run.disk.pages_read,
            seeks: run.disk.seeks,
            end_to_end_gain_pct: pct_gain(secs(base), secs(run)),
            read_gain_pct: pct_gain(base.disk.pages_read as f64, run.disk.pages_read as f64),
        })
        .collect();
    let gain = |i: usize| rows[i].end_to_end_gain_pct;
    Output::new(&rows)
        .fact("placement_only_gain_pct", gain(1))
        .fact("throttling_only_gain_pct", gain(2))
        .fact("priorities_only_gain_pct", gain(3))
        .fact("placement_share_of_full", gain(1) / gain(5))
}

#[derive(Serialize)]
struct ScopeRow {
    scope: String,
    makespan_s: f64,
    pages_read: u64,
    seeks: u64,
    end_to_end_gain_pct: f64,
}

/// What each scope buys on the 5-stream run (18 block index scans and
/// 29 table scans per stream).
fn scope_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let scopes = [
        ("base (no sharing)", SharingMode::Base, false, false),
        ("table scans only (ICDE'07)", ss_mode(), true, false),
        ("index scans only", ss_mode(), false, true),
        ("table + index (VLDB'07)", ss_mode(), true, true),
    ];
    let variant = |(label, mode, table, index)| {
        tput(ctx, label, 5, mode).with(|spec| {
            spec.engine.share_table_scans = table;
            spec.engine.share_index_scans = index;
        })
    };
    scopes.into_iter().map(variant).collect()
}

fn scope(r: &[Run]) -> Output {
    let rows: Vec<ScopeRow> = r
        .iter()
        .map(|run| ScopeRow {
            scope: run.label.clone(),
            makespan_s: secs(run),
            pages_read: run.disk.pages_read,
            seeks: run.disk.seeks,
            end_to_end_gain_pct: pct_gain(secs(&r[0]), secs(run)),
        })
        .collect();
    let gain = |i: usize| rows[i].end_to_end_gain_pct;
    Output::new(&rows)
        .fact("table_only_gain_pct", gain(1))
        .fact("index_only_gain_pct", gain(2))
        .fact("index_on_top_pts", gain(3) - gain(1))
}

#[derive(Serialize)]
struct FairnessRow {
    cap_pct: u32,
    makespan_s: f64,
    pages_read: u64,
    waits: u64,
    total_wait_s: f64,
    worst_query_regression_pct: f64,
}

/// 0 % disables throttling outright; 100 % lets a leader be delayed up
/// to its whole estimated scan time.
const FAIRNESS_CAPS: [u32; 5] = [0, 20, 50, 80, 100];

fn fairness_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let mut v = vec![tput(ctx, BASE, 5, SharingMode::Base)];
    for cap_pct in FAIRNESS_CAPS {
        let mode = SharingMode::ScanSharing(SharingConfig {
            fairness_cap: cap_pct as f64 / 100.0,
            ..SharingConfig::new(0)
        });
        v.push(tput(ctx, format!("cap {cap_pct}%"), 5, mode));
    }
    v
}

fn fairness(r: &[Run]) -> Output {
    let (base, capped) = r.split_first().expect("base run");
    // Worst per-query regression vs base (negative gain).
    let worst = |run: &Run| {
        let gains = QUERY_NAMES
            .iter()
            .map(|q| pct_gain(avg_s(base, q), avg_s(run, q)));
        gains.fold(0.0f64, f64::min)
    };
    let rows: Vec<FairnessRow> = std::iter::zip(FAIRNESS_CAPS, capped)
        .map(|(cap_pct, run)| FairnessRow {
            cap_pct,
            makespan_s: secs(run),
            pages_read: run.disk.pages_read,
            waits: run.sharing.waits_injected,
            total_wait_s: run.sharing.total_wait.as_secs_f64(),
            worst_query_regression_pct: worst(run),
        })
        .collect();
    let worst = rows.iter().map(|row| row.worst_query_regression_pct);
    Output::new(&rows)
        .fact(
            "worst_regression_at_80_pct",
            rows[3].worst_query_regression_pct,
        )
        .fact("worst_regression_any_cap_pct", min_of(worst))
}

#[derive(Serialize)]
struct PlacementRow {
    strategy: String,
    makespan_s: f64,
    pages_read: u64,
    joins: u64,
    optimal_placements: u64,
    gain_vs_base_pct: f64,
}

/// Sections 6.2/6.3: the "interesting locations" search can start a new
/// scan *between* ongoing scans (table scans only — index scans fall
/// back to practical).
fn placement_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let optimal = SharingMode::ScanSharing(SharingConfig {
        placement_strategy: PlacementStrategy::Optimal,
        ..SharingConfig::new(0)
    });
    vec![
        tput(ctx, BASE, 5, SharingMode::Base),
        tput(ctx, "practical (paper)", 5, ss_mode()),
        tput(ctx, "optimal (O(S^3))", 5, optimal),
    ]
}

fn placement(r: &[Run]) -> Output {
    let rows: Vec<PlacementRow> = r
        .iter()
        .map(|run| PlacementRow {
            strategy: run.label.clone(),
            makespan_s: secs(run),
            pages_read: run.disk.pages_read,
            joins: run.sharing.scans_joined + run.sharing.scans_joined_finished,
            optimal_placements: run.sharing.scans_placed_optimal,
            gain_vs_base_pct: pct_gain(secs(&r[0]), secs(run)),
        })
        .collect();
    Output::new(&rows)
        .fact("optimal_placements", rows[2].optimal_placements as f64)
        .fact(
            "practical_lead_pts",
            rows[1].gain_vs_base_pct - rows[2].gain_vs_base_pct,
        )
}

#[derive(Serialize)]
struct ReplacementRow {
    variant: String,
    makespan_s: f64,
    pages_read: u64,
    seeks: u64,
    hit_ratio_pct: f64,
    gain_vs_lru_pct: f64,
}

fn policies(r: &[Run]) -> Output {
    let rows: Vec<ReplacementRow> = r
        .iter()
        .map(|run| ReplacementRow {
            variant: run.label.clone(),
            makespan_s: secs(run),
            pages_read: run.disk.pages_read,
            seeks: run.disk.seeks,
            hit_ratio_pct: run.pool.hit_ratio() * 100.0,
            gain_vs_lru_pct: pct_gain(secs(&r[0]), secs(run)),
        })
        .collect();
    let lead = rows[2].gain_vs_lru_pct - rows[1].gain_vs_lru_pct;
    Output::new(&rows).fact("ss_lead_over_lru2_pts", lead)
}

/// The pinned smoke workload in `mode`: 3 TPC-H streams over
/// `TpchConfig::tiny()`, whatever the experiment scale and seed, so its
/// numbers are the same in every invocation.
fn smoke_run(ctx: &mut Ctx, label: impl Into<String>, mode: SharingMode) -> Variant {
    let cfg = TpchConfig::tiny();
    let db = ctx.tpch(&cfg);
    let spec = throughput_workload(&db, 3, cfg.months as i64, cfg.seed, mode);
    Variant::new(label, &db, spec)
}

/// The canned fault plans the smoke pair is run under, beside no plan.
const SMOKE_PLANS: [(&str, &str); 2] = [
    (
        "empty",
        include_str!("../../../../results/fault_plans/empty.json"),
    ),
    (
        "transient_1pct",
        include_str!("../../../../results/fault_plans/transient_1pct.json"),
    ),
];

/// No fault plan, then each of [`SMOKE_PLANS`] by name.
fn smoke_plans() -> impl Iterator<Item = Option<(&'static str, &'static str)>> {
    std::iter::once(None).chain(SMOKE_PLANS.map(Some))
}

/// Base, pull sharing and push sharing, under no fault plan and then
/// under each of [`SMOKE_PLANS`].
fn smoke_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let mut v = Vec::new();
    for plan in smoke_plans() {
        for (label, mode) in [
            (BASE, SharingMode::Base),
            (SS, ss_mode()),
            ("push", push_mode()),
        ] {
            v.push(match plan {
                None => smoke_run(ctx, label, mode),
                Some((name, json)) => {
                    let faults: FaultsConfig =
                        serde_json::from_str(json).expect("canned fault plan parses");
                    smoke_run(ctx, format!("{name}/{label}"), mode)
                        .with(|spec| spec.faults = faults)
                }
            });
        }
    }
    v
}

/// One base/sharing pair of the smoke workload: the eight headline
/// numbers, integers as integers and ratios unrounded, so that a byte
/// comparison of the row's file is an exact comparison of each.
#[derive(Serialize)]
struct SmokeLeg {
    leg: String,
    base_makespan_us: u64,
    ss_makespan_us: u64,
    base_pages_read: u64,
    ss_pages_read: u64,
    ss_seeks: u64,
    ss_hit_ratio_pct: f64,
    gain_time_pct: f64,
    gain_reads_pct: f64,
}

impl SmokeLeg {
    fn of(leg: String, base: &RunReport, ss: &RunReport) -> SmokeLeg {
        let (base_us, ss_us) = (base.makespan.as_micros(), ss.makespan.as_micros());
        SmokeLeg {
            leg,
            base_makespan_us: base_us,
            ss_makespan_us: ss_us,
            base_pages_read: base.disk.pages_read,
            ss_pages_read: ss.disk.pages_read,
            ss_seeks: ss.disk.seeks,
            ss_hit_ratio_pct: ss.pool.hit_ratio() * 100.0,
            gain_time_pct: pct_gain(base_us as f64, ss_us as f64),
            gain_reads_pct: pct_gain(base.disk.pages_read as f64, ss.disk.pages_read as f64),
        }
    }

    /// Sum over the eight numbers of |self - other|: 0 only if all agree.
    fn drift_from(&self, other: &SmokeLeg) -> f64 {
        let numbers = |l: &SmokeLeg| {
            [
                l.base_makespan_us as f64,
                l.ss_makespan_us as f64,
                l.base_pages_read as f64,
                l.ss_pages_read as f64,
                l.ss_seeks as f64,
                l.ss_hit_ratio_pct,
                l.gain_time_pct,
                l.gain_reads_pct,
            ]
        };
        let pairs = std::iter::zip(numbers(self), numbers(other));
        pairs.map(|(a, b)| (a - b).abs()).sum()
    }
}

/// `pull`, `push`, then the same two under each fault plan.
fn smoke_legs(r: &[Run]) -> Vec<SmokeLeg> {
    let mut legs = Vec::new();
    for (plan, modes) in std::iter::zip(smoke_plans(), r.chunks(3)) {
        for (delivery, ss) in [("pull", &modes[1]), ("push", &modes[2])] {
            let leg = match plan {
                None => delivery.to_string(),
                Some((name, _)) => format!("{delivery}/{name}"),
            };
            legs.push(SmokeLeg::of(leg, &modes[0], ss));
        }
    }
    legs
}

/// The row's output from its six legs and the number of scans the
/// transient plan's three runs aborted.
fn smoke_output(legs: Vec<SmokeLeg>, transient_scans_aborted: u64) -> Output {
    Output::new(&legs)
        .fact("gain_time_pct", legs[0].gain_time_pct)
        .fact("pull_empty_plan_drift", legs[2].drift_from(&legs[0]))
        .fact("push_empty_plan_drift", legs[3].drift_from(&legs[1]))
        .fact("transient_gain_time_pct", legs[4].gain_time_pct)
        .fact("transient_scans_aborted", transient_scans_aborted as f64)
}

fn smoke(r: &[Run]) -> Output {
    let aborted = r[6..].iter().map(|run| run.faults.scans_aborted).sum();
    smoke_output(smoke_legs(r), aborted)
}

const POLICIES: [SharingPolicyKind; 3] = [
    SharingPolicyKind::Grouping,
    SharingPolicyKind::Attach,
    SharingPolicyKind::Elevator,
];

#[derive(Serialize)]
struct PolicyRow {
    workload: String,
    policy: String,
    makespan_s: f64,
    pages_read: u64,
    hit_ratio_pct: f64,
    /// Worst per-query stretch: max over queries of this run's average
    /// query time divided by the base (no sharing) run's. 1.0 = no
    /// query paid anything for the sharing; higher = some query was
    /// slowed that much.
    worst_stretch: f64,
}

/// Two legs, each base + the three policies. The smoke leg is the
/// workload row `smoke` pins — its base and grouping runs come from the
/// memo — and the throughput leg is the Table-1-style 5-stream run.
fn policy_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let modes = || {
        let policies = POLICIES.map(|p| {
            let mode = SharingMode::ScanSharing(SharingConfig::with_policy(0, p));
            (p.as_str(), mode)
        });
        std::iter::once((BASE, SharingMode::Base)).chain(policies)
    };
    let mut v = Vec::new();
    for (label, mode) in modes() {
        v.push(smoke_run(ctx, format!("smoke/{label}"), mode));
    }
    for (label, mode) in modes() {
        v.push(tput(ctx, format!("throughput/{label}"), 5, mode));
    }
    v
}

fn worst_stretch(base: &RunReport, run: &RunReport) -> f64 {
    let mut worst = 1.0f64;
    for name in QUERY_NAMES {
        let (Some(b), Some(s)) = (base.avg_query_time(name), run.avg_query_time(name)) else {
            continue;
        };
        let b = b.as_secs_f64();
        if b > 0.0 {
            worst = worst.max(s.as_secs_f64() / b);
        }
    }
    worst
}

fn policy(r: &[Run]) -> Output {
    let mut rows = Vec::new();
    for leg in r.chunks(1 + POLICIES.len()) {
        let (base, runs) = leg.split_first().expect("base run");
        for (p, run) in std::iter::zip(POLICIES, runs) {
            // The report stamps the policy only when it is not the default.
            let stamp = run.policy.unwrap_or_default();
            assert_eq!(
                stamp, p,
                "report policy stamp disagrees with the requested policy"
            );
            let (workload, policy) = run.label.split_once('/').expect("leg/policy");
            rows.push(PolicyRow {
                workload: workload.to_string(),
                policy: policy.to_string(),
                makespan_s: secs(run),
                pages_read: run.disk.pages_read,
                hit_ratio_pct: run.pool.hit_ratio() * 100.0,
                worst_stretch: worst_stretch(base, run),
            });
        }
    }
    let stretch = |i: usize| rows[i].worst_stretch;
    Output::new(&rows)
        .fact(
            "smoke_stretch_attach_minus_grouping",
            stretch(1) - stretch(0),
        )
        .fact(
            "smoke_stretch_elevator_minus_attach",
            stretch(2) - stretch(1),
        )
}

#[derive(Serialize)]
struct PrefetchRow {
    variant: String,
    makespan_s: f64,
    pages_read: u64,
    seeks: u64,
}

/// The paper's DB2 prefetches aggressively; our calibrated baseline
/// reads synchronously. Read-ahead goes on in *both* modes.
fn prefetch_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let ahead = |v: Variant| v.with(|spec| spec.engine.prefetch_extents = 1);
    vec![
        tput(ctx, "base, no prefetch", 5, SharingMode::Base),
        tput(ctx, "SS, no prefetch", 5, ss_mode()),
        ahead(tput(ctx, "base + prefetch", 5, SharingMode::Base)),
        ahead(tput(ctx, "SS + prefetch", 5, ss_mode())),
    ]
}

fn prefetch(r: &[Run]) -> Output {
    let rows: Vec<PrefetchRow> = r
        .iter()
        .map(|run| PrefetchRow {
            variant: run.label.clone(),
            makespan_s: secs(run),
            pages_read: run.disk.pages_read,
            seeks: run.disk.seeks,
        })
        .collect();
    let gain = pct_gain(rows[2].makespan_s, rows[3].makespan_s);
    Output::new(&rows).fact("gain_with_prefetch_pct", gain)
}

#[derive(Serialize)]
struct RidRow {
    scan: String,
    base_s: f64,
    ss_s: f64,
    gain_pct: f64,
}

#[derive(Serialize)]
struct RidOut {
    scans: Vec<RidRow>,
    base_reads: u64,
    ss_reads: u64,
    base_seeks: u64,
    ss_seeks: u64,
}

/// Three overlapping range reports within the same key region.
const RID_SCANS: [(&str, i64, i64); 3] = [
    ("r0_600", 0, 600),
    ("r50_650", 50, 650),
    ("r100_700", 100, 700),
];

/// Rows in key order, shuffled within a sliding window: key k lands
/// within ~`window` rows of its sorted position.
fn correlated_rows(n: u64, keys: i64, window: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut order: Vec<u64> = (0..n).collect();
    for start in (0..order.len()).step_by(window) {
        let end = (start + window).min(order.len());
        rng.shuffle(&mut order[start..end]);
    }
    let row = |i: u64| {
        let key = (i as i64 * keys) / n as i64;
        vec![Value::I32(key as i32), Value::F64(1.0)]
    };
    order.into_iter().map(row).collect()
}

/// The hard case of the papers' section 3.2: key order and page order
/// disagree, so distance between scans cannot be read off the locations
/// and cold scans seek per page run. A 200k-row heap table whose
/// insertion order is key order with local shuffling (a *correlated but
/// unclustered* index, the common real-world case), scanned by three
/// analysts moments apart. Its own database, whatever the scale and seed.
fn rid_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let db = ctx.db("200k correlated, RID-indexed events", || {
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("key", ColType::Int32),
            Column::new("v", ColType::Float64),
        ]);
        let rows = correlated_rows(200_000, 1000, 2048, 11);
        db.create_heap_table_with_index("events", schema, 0, rows)
            .expect("load");
        db
    });
    let pages = db.table("events").expect("just loaded").num_pages();
    let stream = |(i, &(name, lo, hi)): (usize, &(&str, i64, i64))| Stream {
        queries: vec![sum_scan(
            name,
            "events",
            Access::RidRange { lo, hi },
            1,
            CpuClass::io_bound(),
        )],
        start_offset: SimDuration::from_millis(60 * i as u64),
    };
    let streams = || RID_SCANS.iter().enumerate().map(stream).collect();
    let spec = |mode| workload(streams(), (pages as usize / 20).max(32), mode);
    vec![
        Variant::new(BASE, &db, spec(SharingMode::Base)),
        Variant::new(SS, &db, spec(ss_mode())),
    ]
}

fn rid(r: &[Run]) -> Output {
    let (rb, rs) = (&r[0], &r[1]);
    let (base, ss, gains) = stream_times(rb, rs);
    let scan = |(i, &(name, ..)): (usize, &(&str, i64, i64))| RidRow {
        scan: name.into(),
        base_s: base[i],
        ss_s: ss[i],
        gain_pct: gains[i],
    };
    Output::new(&RidOut {
        scans: RID_SCANS.iter().enumerate().map(scan).collect(),
        base_reads: rb.disk.pages_read,
        ss_reads: rs.disk.pages_read,
        base_seeks: rb.disk.seeks,
        ss_seeks: rs.disk.seeks,
    })
    .fact("min_scan_gain_pct", min_of(gains.iter().copied()))
    .fact("seeks_saved", rb.disk.seeks as f64 - rs.disk.seeks as f64)
}

#[derive(Serialize)]
struct StreamsRow {
    streams: usize,
    base_s: f64,
    ss_s: f64,
    gain_pct: f64,
    base_reads_per_stream: u64,
    ss_reads_per_stream: u64,
    push_s: f64,
    push_gain_pct: f64,
    push_reads_per_stream: u64,
    push_fixes_per_page: f64,
    push_drivers: u64,
    push_attaches: u64,
}

/// Each stream count in three modes: base, pull sharing (overlapping
/// scans collapse onto one page stream) and push sharing (one group
/// driver also fixes each page once for all its consumers).
fn streams_specs(ctx: &mut Ctx, counts: &[usize]) -> Vec<Variant> {
    let mut v = Vec::new();
    for &n in counts {
        v.push(tput(ctx, format!("{n} streams/base"), n, SharingMode::Base));
        v.push(tput(ctx, format!("{n} streams/pull"), n, ss_mode()));
        v.push(tput(ctx, format!("{n} streams/push"), n, push_mode()));
    }
    v
}

fn streams(r: &[Run]) -> Output {
    let row = |modes: &[Run]| {
        let (rb, rs, rp) = (&modes[0], &modes[1], &modes[2]);
        let n = rb.stream_elapsed.len();
        let ps = rp.push.as_ref().expect("push run records its summary");
        StreamsRow {
            streams: n,
            base_s: secs(rb),
            ss_s: secs(rs),
            gain_pct: pct_gain(secs(rb), secs(rs)),
            base_reads_per_stream: rb.disk.pages_read / n as u64,
            ss_reads_per_stream: rs.disk.pages_read / n as u64,
            push_s: secs(rp),
            push_gain_pct: pct_gain(secs(rb), secs(rp)),
            push_reads_per_stream: rp.disk.pages_read / n as u64,
            push_fixes_per_page: ps.fixes_per_page(),
            push_drivers: ps.drivers,
            push_attaches: ps.attaches,
        }
    };
    let rows: Vec<StreamsRow> = r.chunks(3).map(row).collect();
    // One stream has nothing to share with: the scaling argument starts
    // at two.
    let shared: Vec<&StreamsRow> = rows.iter().filter(|row| row.streams >= 2).collect();
    let steps = shared.windows(2).map(|w| w[1].gain_pct - w[0].gain_pct);
    let push_lead = |row: &StreamsRow| row.push_gain_pct - row.gain_pct;
    let fixes = rows.iter().map(|row| row.push_fixes_per_page);
    Output::new(&rows)
        .fact("min_pull_gain_step_pts", min_of(steps))
        .fact(
            "min_push_lead_top2_pts",
            min_of(rows.iter().rev().take(2).map(push_lead)),
        )
        .fact("max_push_fixes_per_page", max_of(fixes))
}

#[derive(Serialize)]
struct AttachRow {
    workload: String,
    mode: String,
    makespan_s: f64,
    pages_read: u64,
    gain_vs_base_pct: f64,
}

/// Homogeneous: four Q6-like scans of the same two years. Heterogeneous:
/// the same ranges scanned by a mix of I/O-light and CPU-heavy queries
/// (6x the per-row work: a slow reader).
fn attach_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let db = ctx.exp_db();
    let last = ctx.cfg.last_month();
    let two_years = Access::IndexRange {
        lo: last - 23,
        hi: last,
    };
    let scan = |name, cpu| sum_scan(name, "lineitem", two_years.clone(), li::EXTENDEDPRICE, cpu);
    let query = |speeds: &str, i: u64| match (speeds, i % 2) {
        ("homogeneous", _) => scan("even", CpuClass::io_bound()),
        (_, 0) => scan("fast", CpuClass::io_bound()),
        _ => scan("slow", CpuClass::cpu_bound()),
    };
    let mut v = Vec::new();
    for speeds in ["homogeneous", "heterogeneous"] {
        for (mode_name, mode) in [
            (BASE, SharingMode::Base),
            (
                "attach (QPipe [19])",
                SharingMode::ScanSharing(SharingConfig::attach_baseline(0)),
            ),
            ("full SS (paper)", ss_mode()),
        ] {
            let stream = |i: u64| Stream {
                queries: vec![query(speeds, i)],
                start_offset: SimDuration::from_millis(80 * i),
            };
            let spec = workload((0..4).map(stream).collect(), paper_pool_pages(&db), mode);
            v.push(Variant::new(format!("{speeds}/{mode_name}"), &db, spec));
        }
    }
    v
}

fn attach(r: &[Run]) -> Output {
    let mut rows = Vec::new();
    for modes in r.chunks(3) {
        for run in modes {
            let (workload, mode) = run.label.split_once('/').expect("workload/mode");
            rows.push(AttachRow {
                workload: workload.to_string(),
                mode: mode.to_string(),
                makespan_s: secs(run),
                pages_read: run.disk.pages_read,
                gain_vs_base_pct: pct_gain(secs(&modes[0]), secs(run)),
            });
        }
    }
    let gain = |i: usize| rows[i].gain_vs_base_pct;
    Output::new(&rows)
        .fact("homogeneous_attach_shortfall_pts", gain(2) - gain(1))
        .fact("heterogeneous_full_lead_pts", gain(5) - gain(4))
}

#[derive(Serialize)]
struct DiskRow {
    n_disks: u32,
    base_s: f64,
    ss_s: f64,
    gain_pct: f64,
    base_reads: u64,
    ss_reads: u64,
}

/// The paper's two boxes differ in storage (FAStT manager vs 16 SSA
/// disks): widen the striped array under the Table 1 comparison.
const DISK_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

fn disks_specs(ctx: &mut Ctx) -> Vec<Variant> {
    let mut v = Vec::new();
    for n in DISK_COUNTS {
        for (label, mode) in [("base", SharingMode::Base), ("SS", ss_mode())] {
            let variant = tput(ctx, format!("{n} disks/{label}"), 5, mode);
            v.push(variant.with(|spec| spec.engine.n_disks = n));
        }
    }
    v
}

fn disks(r: &[Run]) -> Output {
    let row = |(n_disks, pair): (u32, &[Run])| DiskRow {
        n_disks,
        base_s: secs(&pair[0]),
        ss_s: secs(&pair[1]),
        gain_pct: pct_gain(secs(&pair[0]), secs(&pair[1])),
        base_reads: pair[0].disk.pages_read,
        ss_reads: pair[1].disk.pages_read,
    };
    let rows: Vec<DiskRow> = std::iter::zip(DISK_COUNTS, r.chunks(2)).map(row).collect();
    let read_gain = |row: &DiskRow| pct_gain(row.base_reads as f64, row.ss_reads as f64);
    Output::new(&rows)
        .fact("min_read_gain_pct", min_of(rows.iter().map(read_gain)))
        .fact(
            "gain_fade_1_to_16_disks_pts",
            rows[0].gain_pct - rows[4].gain_pct,
        )
}

#[cfg(test)]
mod tests {
    use super::super::{check, find};
    use super::*;
    use scanshare_storage::SimTime;

    #[test]
    fn gain_is_a_percentage_of_base() {
        assert!((pct_gain(100.0, 79.0) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn an_empty_plan_leg_one_page_off_its_twin_violates_exactly_its_claim() {
        let leg = || SmokeLeg {
            leg: String::new(),
            base_makespan_us: 8_407_222,
            ss_makespan_us: 7_450_866,
            base_pages_read: 8290,
            ss_pages_read: 7347,
            ss_seeks: 1265,
            ss_hit_ratio_pct: 27.08,
            gain_time_pct: 11.37,
            gain_reads_pct: 11.38,
        };
        // Six equal legs, but for the push/empty one's page count.
        let legs = |push_empty_pages| {
            let mut legs: Vec<SmokeLeg> = (0..6).map(|_| leg()).collect();
            legs[3].ss_pages_read = push_empty_pages;
            legs
        };
        let row = find("smoke").expect("the row exists");
        let check = |out: &Output| check(row, out, 1.0);
        assert_eq!(check(&smoke_output(legs(7347), 0)), 0);
        let moved = smoke_output(legs(7348), 0);
        assert_eq!(moved.get("push_empty_plan_drift"), Some(1.0));
        assert_eq!(moved.get("pull_empty_plan_drift"), Some(0.0));
        assert_eq!(check(&moved), 1);
        assert_eq!(check(&smoke_output(legs(7347), 1)), 1, "an aborted scan");
    }

    #[test]
    fn ascii_series_is_fixed_width() {
        let mut s = TimeSeries::new(1000);
        for i in 0..100 {
            s.add(SimTime::from_micros(i * 1000), i);
        }
        let line = ascii_series("base", &s, 40, s.buckets().iter().copied().max().unwrap());
        assert_eq!(line.chars().filter(|&c| c == '|').count(), 2);
        assert!(line.len() >= 40);
    }
}
