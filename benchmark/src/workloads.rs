//! The six workloads. Each builds its `Database` and `WorkloadSpec` from
//! the seed alone; the program under test receives nothing else.
//!
//! Names are stable (later issues cite them). The *why* of each workload
//! lives in `BENCHMARK.json` and `README.md`; the sizes here are chosen
//! so one `run_workload` call costs 1.0–1.6 s of host time on the
//! reference box (see README, "Sizing").

use std::time::Instant;

use scanshare::{DeliveryMode, SharingConfig};
use scanshare_engine::{
    run_workload, Access, AggSpec, CpuClass, Database, EngineConfig, Pred, Query, ScanSpec,
    SharingMode, Stream, WorkloadSpec,
};
use scanshare_prng::Rng;
use scanshare_relstore::{ColType, Column, Schema, Value};
use scanshare_storage::SimDuration;
use scanshare_tpch::{generate, q1, staggered_workload, throughput_workload, TpchConfig};

use crate::trace::Recorder;

/// One workload: a stable name and the seeded builder of its inputs.
pub struct Workload {
    /// Stable name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    build: fn(seed: u64, quick: bool, rec: &Recorder) -> Built,
}

/// A workload's generated inputs.
pub struct Built {
    /// The database the runs scan.
    pub db: Database,
    /// The workload handed to `run_workload`.
    pub spec: WorkloadSpec,
    /// Host seconds of the database generation alone (the rest of a
    /// build is spec construction).
    pub gen_s: f64,
}

impl Workload {
    /// Generate the database and the spec for `seed`.
    pub fn build(&self, seed: u64, quick: bool, rec: &Recorder) -> Built {
        rec.span("setup.build", || (self.build)(seed, quick, rec))
    }
}

/// All workloads, in the order they are declared in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tpch32_base",
        build: |seed, quick, rec| tpch(rec, seed, quick, 0.5, 32, 1, SharingMode::Base),
    },
    Workload {
        name: "tpch32_pull",
        build: |seed, quick, rec| tpch(rec, seed, quick, 0.5, 32, 1, pull()),
    },
    Workload {
        name: "tpch64_pull",
        build: |seed, quick, rec| tpch(rec, seed, quick, 0.25, 32, 2, pull()),
    },
    Workload {
        name: "tpch64_push",
        build: |seed, quick, rec| tpch(rec, seed, quick, 0.25, 32, 2, push()),
    },
    Workload {
        name: "q1_hot",
        build: q1_hot,
    },
    Workload {
        name: "rid_overlap",
        build: rid_overlap,
    },
];

/// Default scan sharing: grouping policy, pull delivery, priority LRU
/// (the pool size is filled in by the run).
fn pull() -> SharingMode {
    SharingMode::ScanSharing(SharingConfig::new(0))
}

/// Default scan sharing with push delivery.
fn push() -> SharingMode {
    let mut cfg = SharingConfig::new(0);
    cfg.delivery = DeliveryMode::Push;
    SharingMode::ScanSharing(cfg)
}

/// The TPC-H generator configuration of a run: `scale` for the real
/// benchmark, the generator's own tiny shape under `--quick`.
pub fn tpch_config(scale: f64, seed: u64, quick: bool) -> TpchConfig {
    if quick {
        TpchConfig {
            seed,
            ..TpchConfig::tiny()
        }
    } else {
        TpchConfig {
            scale,
            seed,
            ..TpchConfig::default()
        }
    }
}

fn timed_generate(rec: &Recorder, cfg: &TpchConfig) -> (Database, f64) {
    let t = Instant::now();
    let db = rec.span("tpch.generate", || generate(cfg));
    (db, t.elapsed().as_secs_f64())
}

/// `perms × split` closed-loop streams of the TPC-H throughput mix
/// against a pool of 5 % of the database: each of `perms` seeded
/// 22-query permutations is dealt, in order, to `split` streams. The
/// queries of a run are therefore `perms` whole TPC-H sets whatever the
/// seed, so the seed moves the order and the parameters, not the amount
/// of work.
fn tpch(
    rec: &Recorder,
    seed: u64,
    quick: bool,
    scale: f64,
    perms: usize,
    split: usize,
    mode: SharingMode,
) -> Built {
    let cfg = tpch_config(scale, seed, quick);
    let (db, gen_s) = timed_generate(rec, &cfg);
    let spec = rec.span("spec.build", || {
        let mut spec = throughput_workload(&db, perms, cfg.months as i64, seed, mode);
        spec.streams = spec
            .streams
            .iter()
            .flat_map(|s| {
                let queries = if quick {
                    &s.queries[..2 * split]
                } else {
                    &s.queries[..]
                };
                queries.chunks(queries.len() / split).map(|part| Stream {
                    queries: part.to_vec(),
                    start_offset: s.start_offset,
                })
            })
            .collect();
        spec
    });
    Built { db, spec, gen_s }
}

/// Paper Fig. 16 scaled up: 8 staggered streams of back-to-back Q1 over
/// a pool that holds the whole table, so the run is CPU-bound on the
/// virtual clock and the host time is the row pipeline's.
fn q1_hot(seed: u64, quick: bool, rec: &Recorder) -> Built {
    let cfg = tpch_config(0.5, seed, quick);
    let (db, gen_s) = timed_generate(rec, &cfg);
    let spec = rec.span("spec.build", || q1_hot_spec(&db, quick));
    Built { db, spec, gen_s }
}

fn q1_hot_spec(db: &Database, quick: bool) -> WorkloadSpec {
    let q = q1();
    // Stagger = 15 % of a solo Q1, as `exp_fig16` calibrates it.
    let solo = staggered_workload(db, &q, 1, SimDuration::ZERO, SharingMode::Base);
    let solo_us = run_workload(db, &solo)
        .expect("solo Q1 calibration run")
        .makespan
        .as_micros();
    let stagger = SimDuration::from_micros(((solo_us as f64 * 0.15) as u64).max(1));
    let mut spec = staggered_workload(db, &q, 8, stagger, pull());
    let per_stream = if quick { 2 } else { 25 };
    for s in &mut spec.streams {
        s.queries = vec![q.clone(); per_stream];
    }
    spec.pool_pages = db.total_table_pages() as usize + 64;
    spec
}

/// `exp_rid`'s table: rows in key order, shuffled within a sliding
/// window, so the RID index is correlated with the heap but not
/// clustered on it.
fn correlated_rows(n: u64, keys: i64, window: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut order: Vec<u64> = (0..n).collect();
    for start in (0..order.len()).step_by(window) {
        let end = (start + window).min(order.len());
        rng.shuffle(&mut order[start..end]);
    }
    order
        .into_iter()
        .map(|i| {
            let key = (i as i64 * keys) / n as i64;
            vec![Value::I32(key as i32), Value::F64(1.0)]
        })
        .collect()
}

/// Keys in the RID-indexed table.
const RID_KEYS: i64 = 1000;

/// 16 staggered streams of overlapping RID-index range scans over a
/// correlated-but-unclustered heap table, pool 5 % of the table.
fn rid_overlap(seed: u64, quick: bool, rec: &Recorder) -> Built {
    let (rows, per_stream) = if quick { (20_000, 2) } else { (200_000, 26) };
    let t = Instant::now();
    let gen = rec.begin("db.generate");
    let mut db = Database::new(16);
    let schema = Schema::new(vec![
        Column::new("key", ColType::Int32),
        Column::new("v", ColType::Float64),
    ]);
    db.create_heap_table_with_index(
        "events",
        schema,
        0,
        correlated_rows(rows, RID_KEYS, 2048, seed),
    )
    .expect("load events");
    rec.end(gen);
    let gen_s = t.elapsed().as_secs_f64();
    let spec = rec.span("spec.build", || rid_spec(&db, seed, per_stream));
    Built { db, spec, gen_s }
}

fn rid_spec(db: &Database, seed: u64, per_stream: usize) -> WorkloadSpec {
    let pages = db.table("events").expect("events exists").num_pages();

    // Every range covers 60 % of the keys, so any two overlap in at
    // least 20 %. The starts are one fixed, evenly spaced set for every
    // seed; the seed only deals them to the streams, so it moves which
    // scans meet, not the amount of work.
    let n = 16 * per_stream;
    let mut starts: Vec<i64> = (0..n as i64)
        .map(|j| j * (RID_KEYS * 7 / 10) / n as i64)
        .collect();
    Rng::seed_from_u64(seed ^ 0x7269_645f_6f76).shuffle(&mut starts);
    let streams = starts
        .chunks(per_stream)
        .enumerate()
        .map(|(i, part)| Stream {
            queries: part
                .iter()
                .enumerate()
                .map(|(k, &lo)| rid_query(format!("r{i}_{k}"), lo, lo + RID_KEYS * 3 / 10))
                .collect(),
            start_offset: SimDuration::from_millis(20 * i as u64),
        })
        .collect();
    WorkloadSpec {
        streams,
        pool_pages: (pages as usize / 20).max(32),
        engine: EngineConfig::default(),
        mode: pull(),
        faults: Default::default(),
        slo: Default::default(),
    }
}

fn rid_query(name: String, lo: i64, hi: i64) -> Query {
    Query::single(
        name,
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
