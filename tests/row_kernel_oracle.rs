//! TPC-H Q1 and Q6, and overlapping RID index range scans, through the
//! row kernel, held to two witnesses.
//!
//! *Truth*: the public reference evaluator — `Pred::eval`,
//! `AggSpec::group_key`, `RowRef::get_f64`, which no production code
//! calls — over the rows the access path covers, in the order an
//! unshared scan delivers them, must give the same `QueryResult`. Table
//! and block index scans fold a subtotal a page: each page's rows from
//! +0.0, then the pages in order; the reference folds the same way and
//! must match bit for bit. It must also match the row-at-a-time fold the
//! page subtotals replaced, on every count and group key, each sum within
//! the bound a changed summation order keeps to (ROADMAP item 1(a)).
//! (`scan_exec`'s `kernel_oracle` unit tests cross the same comparisons
//! with handcrafted pages, wraps and RID batches.) A RID scan folds one
//! row at a time in key order; placed mid-range by sharing it folds its
//! rows in another order, so the RID cases compare with the fold in key
//! order: counts exactly, sums within 1e-12 relative.
//!
//! *Stability*: the FNV-1a digest of each result equals a constant.
//! `PARENT_DIGESTS` were computed when whole-page steps began folding
//! page subtotals (they moved in the last bits of sums only: every other
//! byte of every identity-matrix report stayed put).
//! `RID_PARENT_DIGESTS` came from the commit preceding the shared
//! decoded index and the one-pass RID step: this file was run in a `git
//! archive` of that commit with them zeroed and the values its failure
//! message printed were pasted in unedited; page subtotals left them
//! where they were.

use std::collections::BTreeMap;

use scanshare_prng::Rng;
use scanshare_repro::core::{DecisionEvent, SharingConfig};
use scanshare_repro::engine::exec::ExecWorld;
use scanshare_repro::engine::scan_exec::ScanExec;
use scanshare_repro::engine::{
    run_workload, Access, AggSpec, CpuClass, Database, EngineConfig, Pred, Query, QueryResult,
    ScanSpec, SharingMode, Stream, WorkloadSpec,
};
use scanshare_repro::relstore::{ColType, Column, HeapPage, Rid, RowRef, Schema, Value};
use scanshare_repro::storage::{
    BufferPool, PageId, PoolConfig, ReplacementPolicy, SimDuration, SimTime,
};
use scanshare_repro::tpch::{generate, q1, q6, TpchConfig};

/// `(seed, query, digest)`, computed when whole-page steps began folding
/// page subtotals.
const PARENT_DIGESTS: [(u64, &str, u64); 4] = [
    (42, "Q1", 0xd3135b8d079b9cdb),
    (42, "Q6", 0x8842d40c5fcee50b),
    (7, "Q1", 0x0372984986bcb896),
    (7, "Q6", 0xd72f20c2faaea11b),
];

/// FNV-1a over the result's count, sums and sorted groups, floats by bit
/// pattern.
fn digest(r: &QueryResult) -> u64 {
    let mut words = vec![r.count, r.sums.len() as u64];
    words.extend(r.sums.iter().map(|s| s.to_bits()));
    for (key, g) in &r.groups {
        words.extend([*key as u64, g.count]);
        words.extend(g.sums.iter().map(|s| s.to_bits()));
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The kernel's answer: one unshared pull scan, start to finish.
fn kernel(db: &Database, spec: &ScanSpec) -> QueryResult {
    let pool = BufferPool::new(PoolConfig::new(256, ReplacementPolicy::Lru));
    let mut world = ExecWorld::new(db.store(), pool, EngineConfig::default(), None);
    let mut scan = ScanExec::start(db, &mut world, spec, SimTime::ZERO).expect("scan plans");
    let mut now = SimTime::ZERO;
    while let Some(next) = scan.step(&mut world, now).expect("no faults") {
        now = next;
    }
    scan.result()
}

/// Every row the access path covers — every row of every page for
/// table and block index scans, the indexed rows in key order for RID
/// scans — in that order, as (page, slot).
fn covered(db: &Database, spec: &ScanSpec) -> Vec<(u32, u16)> {
    let table = db.table(&spec.table).expect("table exists");
    let every_row = |p: u32| {
        let page = db
            .store()
            .read_page(PageId::new(table.file(), p))
            .expect("page reads");
        let n = HeapPage::new(&page).expect("heap page").num_rows();
        (0..n).map(move |slot| (p, slot))
    };
    match spec.access {
        Access::FullTable => (0..table.num_pages()).flat_map(every_row).collect(),
        Access::IndexRange { lo, hi } => {
            let mdc = table.as_mdc().expect("clustered table");
            let blocks = mdc
                .blocks_for_range(db.store(), lo, hi)
                .expect("index reads");
            blocks
                .iter()
                .flat_map(|e| mdc.block_page_range(e.payload as u32))
                .flat_map(every_row)
                .collect()
        }
        Access::RidRange { lo, hi } => table
            .rid_index
            .as_ref()
            .expect("RID index")
            .range(db.store(), lo, hi)
            .expect("index reads")
            .iter()
            .map(|e| Rid::unpack(e.payload))
            .map(|rid| (rid.page, rid.slot))
            .collect(),
    }
}

/// The reference answer over `rows` through the public evaluator: one
/// row at a time, or, `by_page`, each page's run of rows folded into a
/// subtotal from +0.0 that is then added — count and sums, and each of
/// its groups to the same group. Also returns the absolute values of
/// each sum's addends, summed, and of each group's.
fn fold(db: &Database, spec: &ScanSpec, rows: &[(u32, u16)], by_page: bool) -> Folded {
    let table = db.table(&spec.table).expect("table exists");
    let n = spec.agg.sum_cols.len();
    let empty = || QueryResult {
        sums: vec![0.0; n],
        ..QueryResult::default()
    };
    // The position of `key`'s group in `r`, started if it has none.
    let group = |r: &mut QueryResult, key: i64| match r.groups.binary_search_by_key(&key, |g| g.0) {
        Ok(at) => at,
        Err(at) => {
            r.groups.insert(at, (key, Default::default()));
            r.groups[at].1.sums = vec![0.0; n];
            at
        }
    };
    let mut out = Folded {
        result: empty(),
        abs: vec![0.0; n],
        group_abs: BTreeMap::new(),
    };
    let runs: Vec<&[(u32, u16)]> = match by_page {
        true => rows.chunk_by(|a, b| a.0 == b.0).collect(),
        false => rows.chunks(1).collect(),
    };
    for run in runs {
        let bytes = db
            .store()
            .read_page(PageId::new(table.file(), run[0].0))
            .expect("page reads");
        let page = HeapPage::new(&bytes).expect("heap page");
        let mut sub = empty();
        for &(_, slot) in run {
            let row = RowRef {
                bytes: page.row_bytes(slot).expect("slot exists"),
                schema: table.schema(),
            };
            if !spec.pred.eval(&row) {
                continue;
            }
            let key = spec.agg.group_key(&row);
            let at = group(&mut sub, key);
            let abs = out.group_abs.entry(key).or_insert_with(|| vec![0.0; n]);
            sub.count += 1;
            sub.groups[at].1.count += 1;
            for (i, &c) in spec.agg.sum_cols.iter().enumerate() {
                let x = row.get_f64(c);
                sub.sums[i] += x;
                sub.groups[at].1.sums[i] += x;
                out.abs[i] += x.abs();
                abs[i] += x.abs();
            }
        }
        let r = &mut out.result;
        r.count += sub.count;
        for (total, x) in r.sums.iter_mut().zip(&sub.sums) {
            *total += x;
        }
        for (key, g) in sub.groups {
            let at = group(r, key);
            r.groups[at].1.count += g.count;
            for (total, x) in r.groups[at].1.sums.iter_mut().zip(&g.sums) {
                *total += x;
            }
        }
    }
    if spec.agg.group_by.is_empty() {
        out.result.groups.clear();
    }
    out
}

/// A reference answer, and what bounds a fold of its rows in another
/// order: per sum, and per group and sum, its addends' absolute values,
/// summed.
struct Folded {
    result: QueryResult,
    abs: Vec<f64>,
    group_abs: BTreeMap<i64, Vec<f64>>,
}

/// `got` against `want`, a fold of the same rows in another order:
/// counts and group keys exact, and each sum of n addends within
/// 2(n − 1)·2⁻⁵³·Σ|xᵢ| of `want`'s (each order is within (n − 1)·2⁻⁵³·Σ|xᵢ|
/// of the exact sum, to first order). Returns whether any sum differs in
/// its bits.
fn assert_near(at: &str, got: &QueryResult, want: &Folded) -> bool {
    let mut moved = false;
    let mut near = |got: &[f64], want: &[f64], abs: &[f64], n: u64| {
        assert_eq!(got.len(), want.len(), "{at}");
        for ((&g, &w), &abs) in got.iter().zip(want).zip(abs) {
            moved |= g.to_bits() != w.to_bits();
            let bound = 2.0 * n.saturating_sub(1) as f64 * f64::EPSILON / 2.0 * abs;
            assert!(
                (g - w).abs() <= bound,
                "{at}: {g:e} vs {w:e}, bound {bound:e}"
            );
        }
    };
    let r = &want.result;
    assert_eq!(got.count, r.count, "{at}");
    near(&got.sums, &r.sums, &want.abs, r.count);
    let keys = |r: &QueryResult| -> Vec<(i64, u64)> {
        r.groups.iter().map(|(k, g)| (*k, g.count)).collect()
    };
    assert_eq!(keys(got), keys(r), "{at}");
    for ((key, g), (_, w)) in got.groups.iter().zip(&r.groups) {
        near(&g.sums, &w.sums, &want.group_abs[key], w.count);
    }
    moved
}

#[test]
fn q1_and_q6_equal_the_naive_fold_and_the_parents_digests() {
    let mut got = Vec::new();
    let mut moved = false;
    for seed in [42u64, 7] {
        let cfg = TpchConfig {
            seed,
            ..TpchConfig::tiny()
        };
        let db = generate(&cfg);
        for query in [q1(), q6(cfg.months as i64, seed)] {
            let spec = &query.scans[0];
            let result = kernel(&db, spec);
            let at = format!("{} at seed {seed}", query.name);
            assert!(result.count > 0, "{at} selects rows");
            let rows = covered(&db, spec);
            let want = fold(&db, spec, &rows, true).result;
            assert_eq!(
                digest(&result),
                digest(&want),
                "{at}: kernel {result:?} vs naive {want:?}"
            );
            moved |= assert_near(&at, &result, &fold(&db, spec, &rows, false));
            got.push((seed, query.name.clone(), digest(&result)));
        }
    }
    assert!(moved, "no sum differs from the row-at-a-time fold's");
    let table: String = got
        .iter()
        .map(|(seed, name, d)| format!("    ({seed}, {name:?}, {d:#018x}),\n"))
        .collect();
    let want: Vec<_> = PARENT_DIGESTS
        .iter()
        .map(|&(seed, name, d)| (seed, name.to_string(), d))
        .collect();
    assert_eq!(got, want, "digests moved; this run computed:\n{table}");
}

/// `(case, mode, digest)` of the RID cases, computed by the parent
/// commit: per run, FNV-1a over its queries' result digests in name
/// order.
const RID_PARENT_DIGESTS: [(&str, &str, u64); 4] = [
    ("pred", "base", 0x3d62370e234eae5a),
    ("pred", "pull", 0x61a337c66737b8dc),
    ("group", "base", 0x34b07ce10415493a),
    ("group", "pull", 0xef1c4a47cd48023e),
];

/// Rows and keys of the RID-indexed table, and the insertion windows
/// whose rows are shuffled.
const RID_ROWS: u64 = 40_000;
const RID_KEYS: i64 = 400;
const RID_WINDOW: usize = 1024;

/// A correlated-but-unclustered heap with a RID index on `key` — the
/// shape of the benchmark's `rid_overlap`: keys rise with insertion
/// order but are shuffled within windows, so key order revisits pages.
/// `v` spans six decimal orders (all positive, so a changed summation
/// order moves only low bits) and `flag` is one of four letters.
fn rid_db() -> Database {
    let mut rng = Rng::seed_from_u64(0x0071_D0AC);
    let mut order: Vec<u64> = (0..RID_ROWS).collect();
    for window in order.chunks_mut(RID_WINDOW) {
        rng.shuffle(window);
    }
    let rows: Vec<Vec<Value>> = order
        .into_iter()
        .map(|i| {
            let key = (i as i64 * RID_KEYS) / RID_ROWS as i64;
            let v = (0.5 + rng.next_f64()) * 10f64.powi(rng.random_range(-3..3i32));
            let flag = b'A' + rng.bounded_u64(4) as u8;
            vec![Value::I32(key as i32), Value::F64(v), Value::Ch(flag)]
        })
        .collect();
    let schema = Schema::new(vec![
        Column::new("key", ColType::Int32),
        Column::new("v", ColType::Float64),
        Column::new("flag", ColType::Char),
    ]);
    let mut db = Database::new(16);
    db.create_heap_table_with_index("events", schema, 0, rows)
        .expect("events table");
    db
}

/// Four streams of three overlapping RID range scans each, 30 ms apart,
/// every scan over 40 % of the keys at a seeded start; then, once they
/// are done, a fifth stream alone whose ranges each hold the key the
/// previous scan ended at, so each of its scans backs up over its
/// predecessor's leftovers.
fn rid_workload(db: &Database, pred: &Pred, agg: &AggSpec, mode: SharingMode) -> WorkloadSpec {
    let mut rng = Rng::seed_from_u64(0x5CA1);
    let span = RID_KEYS * 4 / 10;
    let query = |name: String, lo: i64| {
        let spec = ScanSpec {
            table: "events".into(),
            access: Access::RidRange { lo, hi: lo + span },
            pred: pred.clone(),
            agg: agg.clone(),
            cpu: CpuClass::io_bound(),
            require_order: false,
            query_priority: Default::default(),
            repeat: 1,
        };
        Query::single(name, spec)
    };
    let mut streams: Vec<Stream> = (0..4)
        .map(|s| Stream {
            queries: (0..3)
                .map(|k| {
                    let lo = rng.bounded_u64((RID_KEYS - span) as u64) as i64;
                    query(format!("s{s}q{k}"), lo)
                })
                .collect(),
            start_offset: SimDuration::from_millis(30 * s),
        })
        .collect();
    streams.push(Stream {
        queries: [RID_KEYS / 4, RID_KEYS / 2, RID_KEYS / 3]
            .into_iter()
            .enumerate()
            .map(|(k, lo)| query(format!("s4q{k}"), lo))
            .collect(),
        start_offset: SimDuration::from_secs(600),
    });
    let pages = db.table("events").expect("events").num_pages() as usize;
    WorkloadSpec {
        streams,
        pool_pages: (pages / 20).max(32),
        engine: EngineConfig::default(),
        mode,
        faults: Default::default(),
        slo: Default::default(),
    }
}

/// `got` within `rel` of `want`, relative to `want`'s magnitude.
fn close(got: f64, want: f64, rel: f64) -> bool {
    (got - want).abs() <= rel * want.abs().max(f64::MIN_POSITIVE)
}

#[test]
fn rid_scans_equal_the_naive_key_order_fold_and_the_parents_digests() {
    let db = rid_db();
    let cases = [
        ("pred", Pred::CharEq(2, b'B'), AggSpec::sums(vec![1])),
        ("group", Pred::True, AggSpec::grouped_sums(vec![1], vec![2])),
    ];
    let modes = [
        ("base", SharingMode::Base),
        ("pull", SharingMode::ScanSharing(SharingConfig::new(0))),
    ];
    let mut got = Vec::new();
    for (case, pred, agg) in &cases {
        for (mode, sharing) in &modes {
            let spec = rid_workload(&db, pred, agg, sharing.clone());
            let report = run_workload(&db, &spec).expect("run");
            let scans: BTreeMap<&str, &ScanSpec> = spec
                .streams
                .iter()
                .flat_map(|s| &s.queries)
                .map(|q| (q.name.as_str(), &q.scans[0]))
                .collect();
            let results: BTreeMap<&str, &QueryResult> = report
                .queries
                .iter()
                .map(|q| (q.name.as_str(), &q.result))
                .collect();
            assert_eq!(results.len(), scans.len(), "{case}/{mode}: every query ran");
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (name, result) in &results {
                let spec = scans[name];
                let want = fold(&db, spec, &covered(&db, spec), false).result;
                let at = format!("{case}/{mode} {name}: kernel {result:?} vs naive {want:?}");
                assert!(want.count > 0, "{at}");
                assert_eq!(result.count, want.count, "{at}");
                assert_eq!(result.sums.len(), want.sums.len(), "{at}");
                for (g, w) in result.sums.iter().zip(&want.sums) {
                    assert!(close(*g, *w, 1e-12), "{at}");
                }
                assert_eq!(result.groups.len(), want.groups.len(), "{at}");
                for ((gk, g), (wk, w)) in result.groups.iter().zip(&want.groups) {
                    assert_eq!((gk, g.count), (wk, w.count), "{at}");
                    for (gs, ws) in g.sums.iter().zip(&w.sums) {
                        assert!(close(*gs, *ws, 1e-12), "{at}");
                    }
                }
                for b in digest(result).to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            if *mode == "pull" {
                // Sharing placed scans mid-range: some joined a running
                // scan and wrapped, some backed up over a finished scan's
                // leftovers.
                let events = || report.decisions.iter().map(|r| &r.event);
                let wraps = events()
                    .filter(|e| matches!(e, DecisionEvent::ScanWrapped { .. }))
                    .count();
                let back_ups = events()
                    .filter(|e| {
                        matches!(e, DecisionEvent::GroupJoin { back_up_pages, .. } if *back_up_pages > 0)
                    })
                    .count();
                assert!(report.sharing.scans_joined > 0, "{case}: no scan joined");
                assert!(wraps > 0, "{case}: no scan wrapped");
                assert!(back_ups > 0, "{case}: no join backed up");
            }
            got.push((case.to_string(), mode.to_string(), h));
        }
    }
    let table: String = got
        .iter()
        .map(|(case, mode, d)| format!("    ({case:?}, {mode:?}, {d:#018x}),\n"))
        .collect();
    let want: Vec<_> = RID_PARENT_DIGESTS
        .iter()
        .map(|&(case, mode, d)| (case.to_string(), mode.to_string(), d))
        .collect();
    assert_eq!(got, want, "digests moved; this run computed:\n{table}");
}
