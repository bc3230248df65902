//! Isolated drives: host ns per operation of each layer's public
//! functions, outside any workload run.
//!
//! A drive is shaped by the workload it is reported for — the pool
//! drives use its pool capacity and replacement policy — and the
//! manager drives are measured at every live-scan count L ∈ {8, 32, 64}
//! so the reconciliation can pick the one matching the workload's stream
//! count. Table-backed drives run over one auxiliary TPC-H database that
//! is the same for every workload, so their numbers compare across
//! workloads.

use std::hint::black_box;
use std::time::{Duration, Instant};

use scanshare::anchor::AnchorId;
use scanshare::grouping::find_leaders_trailers;
use scanshare::placement::{best_start_practical, Trace};
use scanshare::{
    DecisionLog, Location, ObjectId, ScanDesc, ScanId, ScanKind, ScanSharingManager, SharingConfig,
};
use scanshare_bench::stats::median;
use scanshare_engine::exec::ExecWorld;
use scanshare_engine::scan_exec::ScanExec;
use scanshare_engine::workload::DEFAULT_DECISION_CAP;
use scanshare_engine::{Access, AggSpec, CpuClass, Database, EngineConfig, Pred, ScanSpec};
use scanshare_relstore::{BTree, Entry, HeapPage};
use scanshare_storage::page::zeroed_page;
use scanshare_storage::{
    BufferPool, DiskArray, FileId, FileStore, PageBuf, PageId, PagePriority, PoolConfig,
    ReplacementPolicy, SimDuration, SimTime,
};
use scanshare_tpch::gen::lineitem_cols as li;

use crate::metrics::{m, Metric};
use crate::trace::Recorder;

/// Samples per drive; the reported figure is their median.
const SAMPLES: usize = 7;

/// Live-scan counts the manager drives are measured at.
pub const LIVE_SCANS: [usize; 3] = [8, 32, 64];

/// The replacement policies of the pool, with the suffix their
/// `miss_evict_ns` metric carries.
const POLICIES: [(ReplacementPolicy, &str); 3] = [
    (ReplacementPolicy::Lru, "lru"),
    (ReplacementPolicy::PriorityLru, "priority_lru"),
    (ReplacementPolicy::Lru2, "lru2"),
];

/// What shapes a workload's drives.
pub struct Shape {
    /// The workload's pool capacity, pages.
    pub pool_pages: usize,
    /// The replacement policy its runs use.
    pub policy: ReplacementPolicy,
    /// Host time of one sample.
    pub sample: Duration,
}

/// Median ns per operation over [`SAMPLES`] samples. `batch` performs a
/// batch of operations and returns how many; it is called once to warm
/// up and then repeatedly until a sample's time is used.
fn drive(
    rec: &Recorder,
    name: &str,
    unit: &'static str,
    sample: Duration,
    mut batch: impl FnMut() -> u64,
) -> Metric {
    let span = rec.begin(&format!("drive.{name}"));
    batch();
    let mut total_ops = 0u64;
    let per_op: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let mut ops = 0u64;
            while ops == 0 || t.elapsed() < sample {
                ops += batch();
            }
            total_ops += ops;
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    rec.attr(span, "ops", total_ops);
    rec.end(span);
    m(name, median(&per_op), unit)
}

fn page(p: u32) -> PageId {
    PageId::new(FileId(0), p)
}

/// A pool of `cap` pages, full of unpinned Normal-priority pages
/// `0..cap`.
fn full_pool(cap: usize, policy: ReplacementPolicy, buf: &PageBuf) -> BufferPool {
    let mut pool = BufferPool::new(PoolConfig::new(cap, policy));
    for p in 0..cap as u32 {
        assert!(pool.fix_slot(page(p)).is_none(), "fresh pool");
        pool.complete_miss_slot(page(p), buf.clone())
            .expect("room in pool");
        pool.release(page(p), PagePriority::Normal)
            .expect("page is pinned");
    }
    pool
}

fn pool_drives(rec: &Recorder, shape: &Shape, out: &mut Vec<Metric>) {
    let buf = zeroed_page().freeze();
    let cap = shape.pool_pages;

    let mut pool = full_pool(cap, shape.policy, &buf);
    let mut i = 0u32;
    out.push(drive(
        rec,
        "storage.pool.hit_ns",
        "ns",
        shape.sample,
        || {
            for _ in 0..1024 {
                i = (i + 1) % cap as u32;
                black_box(pool.fix_slot(page(i)).expect("resident"));
                pool.release(page(i), PagePriority::Normal).expect("pinned");
            }
            1024
        },
    ));

    for (policy, suffix) in POLICIES {
        let mut pool = full_pool(cap, policy, &buf);
        let mut next = cap as u32;
        let name = format!("storage.pool.miss_evict_ns.{suffix}");
        out.push(drive(rec, &name, "ns", shape.sample, || {
            for _ in 0..256 {
                next = next.wrapping_add(1).max(cap as u32);
                assert!(pool.fix_slot(page(next)).is_none(), "never resident");
                black_box(
                    pool.complete_miss_slot(page(next), buf.clone())
                        .expect("a victim exists"),
                );
                pool.release(page(next), PagePriority::Normal)
                    .expect("pinned");
            }
            256
        }));
    }

    let mut pool = full_pool(cap, shape.policy, &buf);
    let mut i = 0u32;
    out.push(drive(
        rec,
        "storage.pool.reprioritize_ns",
        "ns",
        shape.sample,
        || {
            for _ in 0..1024 {
                i = i.wrapping_add(1);
                let id = page(i % cap as u32);
                black_box(pool.fix_slot(id).expect("resident"));
                // Low on even laps, High on odd ones: every release
                // changes the page's class.
                let prio = if (i / cap as u32).is_multiple_of(2) {
                    PagePriority::Low
                } else {
                    PagePriority::High
                };
                pool.release(id, prio).expect("pinned");
            }
            1024
        },
    ));
}

fn desc(object: u64) -> ScanDesc {
    ScanDesc {
        kind: ScanKind::Index,
        object: ObjectId(object),
        start_key: 0,
        end_key: 1000,
        est_pages: 10_000,
        est_time: SimDuration::from_secs(10),
        priority: Default::default(),
    }
}

/// A manager configured as a run configures it (pool size, decision log
/// attached), with `n` ongoing scans spread over 4 objects.
fn manager_with_scans(n: usize, pool_pages: usize) -> (ScanSharingManager, Vec<ScanId>) {
    let mgr = ScanSharingManager::new(SharingConfig::new(pool_pages as u64));
    mgr.attach_decision_log(DecisionLog::new(DEFAULT_DECISION_CAP));
    let ids = (0..n)
        .map(|i| {
            let (id, _) = mgr.start_scan(desc((i % 4) as u64), SimTime::ZERO);
            mgr.update_location(
                id,
                SimTime::from_millis(10 * (i as u64 + 1)),
                Location::new((i as i64 * 37) % 1000, i as u64 * 131),
                64,
            );
            id
        })
        .collect();
    (mgr, ids)
}

fn core_drives(rec: &Recorder, shape: &Shape, out: &mut Vec<Metric>) {
    for n in LIVE_SCANS {
        let (mgr, ids) = manager_with_scans(n, shape.pool_pages);
        let (mut t, mut pos, mut k) = (1_000_000u64, 0u64, 0usize);
        let name = format!("core.manager.update_location_ns.L{n}");
        out.push(drive(rec, &name, "ns", shape.sample, || {
            for _ in 0..256 {
                t += 1000;
                pos += 16;
                k = (k + 1) % n;
                black_box(mgr.update_location(
                    ids[k],
                    SimTime::from_micros(t),
                    Location::new((pos % 1000) as i64, pos),
                    16,
                ));
            }
            256
        }));

        let (mgr, _) = manager_with_scans(n, shape.pool_pages);
        let name = format!("core.manager.start_end_scan_ns.L{n}");
        out.push(drive(rec, &name, "ns", shape.sample, || {
            let (id, d) = mgr.start_scan(desc(0), SimTime::from_secs(1));
            black_box(&d);
            mgr.end_scan(id, SimTime::from_secs(1));
            1
        }));

        let scans: Vec<(ScanId, AnchorId, i64)> = (0..n)
            .map(|i| {
                (
                    ScanId(i as u64),
                    AnchorId(i as u64 % 4),
                    (i as i64 * 7919) % 100_000,
                )
            })
            .collect();
        let name = format!("core.grouping.find_leaders_trailers_ns.L{n}");
        out.push(drive(rec, &name, "ns", shape.sample, || {
            for _ in 0..64 {
                black_box(find_leaders_trailers(&scans, shape.pool_pages as u64));
            }
            64
        }));

        let members: Vec<Trace> = (0..n)
            .map(|i| {
                let pos = (i as f64 * 137.0) % 5000.0;
                Trace::new(pos, 50.0 + (i as f64 * 17.0) % 300.0, pos + 2000.0)
            })
            .collect();
        let name = format!("core.placement.best_start_practical_ns.L{n}");
        out.push(drive(rec, &name, "ns", shape.sample, || {
            black_box(best_start_practical(
                &members,
                100.0,
                2000.0,
                shape.pool_pages as f64,
            ));
            1
        }));
    }
}

/// A full scan of the auxiliary `lineitem` with the given row work.
fn lineitem_scan(pred: Pred, agg: AggSpec) -> ScanSpec {
    ScanSpec {
        table: "lineitem".into(),
        access: Access::FullTable,
        pred,
        agg,
        cpu: CpuClass::io_bound(),
        require_order: false,
        query_priority: Default::default(),
        repeat: 1,
    }
}

/// An unmanaged world over `db` whose scans keep their pages in the
/// pool (no sequential-scan ring).
fn world(db: &Database, cap: usize, policy: ReplacementPolicy) -> ExecWorld<'_> {
    let cfg = EngineConfig {
        seq_ring_pages: 0,
        ..EngineConfig::default()
    };
    ExecWorld::new(
        db.store(),
        BufferPool::new(PoolConfig::new(cap, policy)),
        cfg,
        None,
    )
}

fn table_drives(rec: &Recorder, shape: &Shape, aux: &Database, out: &mut Vec<Metric>) {
    let store = aux.store();
    let table = aux.table("lineitem").expect("aux db has lineitem");
    let (file, n_pages, n_rows) = (table.file(), table.num_pages(), table.num_rows());
    let width = table.schema().row_width();

    let mut p = 0u32;
    out.push(drive(
        rec,
        "storage.store.read_page_ns",
        "ns",
        shape.sample,
        || {
            for _ in 0..1024 {
                p = (p + 1) % n_pages;
                black_box(store.read_page(PageId::new(file, p)).expect("page exists"));
            }
            1024
        },
    ));

    let cfg = EngineConfig::default();
    let mut disk = DiskArray::new(cfg.disk.clone(), cfg.n_disks, cfg.extent_pages);
    let (mut now, mut x) = (SimTime::ZERO, 0u64);
    out.push(drive(
        rec,
        "storage.disk.read_ns",
        "ns",
        shape.sample,
        || {
            for _ in 0..256 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                now = disk.read(now, (x >> 44) * 16, 16).done;
            }
            black_box(now);
            256
        },
    ));

    let bufs: Vec<PageBuf> = (0..n_pages)
        .map(|p| store.read_page(PageId::new(file, p)).expect("page exists"))
        .collect();
    out.push(drive(
        rec,
        "relstore.heap.row_iter_ns",
        "ns",
        shape.sample,
        || {
            let (mut rows, mut acc) = (0u64, 0u8);
            for buf in &bufs {
                let view = HeapPage::new(buf).expect("valid heap page");
                // `None` only for the empty tail pages of an MDC block.
                for row in view.rows_dense(width).into_iter().flatten() {
                    acc ^= row[0];
                    rows += 1;
                }
            }
            black_box(acc);
            rows
        },
    ));

    let mdc = table.as_mdc().expect("lineitem is MDC");
    let mut lo = 0i64;
    out.push(drive(
        rec,
        "relstore.mdc.blocks_for_range_ns",
        "ns",
        shape.sample,
        || {
            for _ in 0..16 {
                lo = (lo + 5) % (mdc.max_key - 11).max(1);
                black_box(
                    mdc.blocks_for_range(store, lo, lo + 11)
                        .expect("index readable"),
                );
            }
            16
        },
    ));

    // One extent's worth of bookkeeping per 16 pages, all resident.
    let window = (shape.pool_pages.min(256) / 16).max(1) as u32;
    let extents: Vec<Vec<PageId>> = (0..n_pages / 16)
        .map(|e| {
            (e * 16..e * 16 + 16)
                .map(|p| PageId::new(file, p))
                .collect()
        })
        .collect();
    let mut w = world(aux, window as usize * 16, shape.policy);
    let mut pages = Vec::new();
    let (mut now, mut e) = (SimTime::ZERO, 0u32);
    out.push(drive(
        rec,
        "engine.exec.fetch_extent_hit_ns",
        "ns",
        shape.sample,
        || {
            for _ in 0..16 {
                e = (e + 1) % window;
                let f = w
                    .fetch_extent(now, &extents[e as usize], &mut pages)
                    .expect("no faults");
                now = f.ready;
                w.release_pages(&pages, PagePriority::Normal)
                    .expect("pinned");
            }
            16 * 16
        },
    ));

    // Every page misses: the pool is smaller than the table and the
    // cursor laps it.
    let cap = shape.pool_pages.min(n_pages as usize / 4).max(16);
    let mut w = world(aux, cap, shape.policy);
    let (mut now, mut e) = (SimTime::ZERO, 0usize);
    out.push(drive(
        rec,
        "engine.exec.fetch_extent_miss_ns",
        "ns",
        shape.sample,
        || {
            for _ in 0..16 {
                e = (e + 1) % extents.len();
                let f = w
                    .fetch_extent(now, &extents[e], &mut pages)
                    .expect("no faults");
                debug_assert_eq!(f.misses, 16);
                now = f.ready;
                w.release_pages(&pages, PagePriority::Normal)
                    .expect("pinned");
            }
            16 * 16
        },
    ));

    // Whole scans over a resident table: per-row cost of the scan loop
    // with no row work, with two sums (the throughput mix's usual scan),
    // with Q6's predicate on top, and with Q1's grouped sums. Aggregation
    // is `sum` - `count`, the predicate `q6` - `sum`, grouping `q1` - `sum`.
    let q6_pred = Pred::And(
        Box::new(Pred::F64LessThan(li::QUANTITY, 24.0)),
        Box::new(Pred::F64LessThan(li::DISCOUNT, 0.07)),
    );
    let scans = [
        ("count", lineitem_scan(Pred::True, AggSpec::count_only())),
        (
            "sum",
            lineitem_scan(
                Pred::True,
                AggSpec::sums(vec![li::EXTENDEDPRICE, li::DISCOUNT]),
            ),
        ),
        (
            "q6",
            lineitem_scan(
                q6_pred,
                AggSpec::sums(vec![li::EXTENDEDPRICE, li::DISCOUNT]),
            ),
        ),
        (
            "q1",
            lineitem_scan(
                Pred::True,
                AggSpec::grouped_sums(
                    vec![li::QUANTITY, li::EXTENDEDPRICE, li::DISCOUNT, li::TAX],
                    vec![li::RETURNFLAG, li::LINESTATUS],
                ),
            ),
        ),
    ];
    for (suffix, spec) in scans {
        let mut w = world(aux, n_pages as usize + 64, ReplacementPolicy::Lru);
        let mut now = SimTime::ZERO;
        let name = format!("engine.scan_exec.row_ns.{suffix}");
        out.push(drive(rec, &name, "ns", shape.sample, || {
            let mut scan = ScanExec::start(aux, &mut w, &spec, now).expect("scan plans");
            while let Some(next) = scan.step(&mut w, now).expect("no faults") {
                now = next;
            }
            black_box(scan.result());
            n_rows
        }));
    }
}

fn btree_drive(rec: &Recorder, shape: &Shape, entries: u64, out: &mut Vec<Metric>) {
    // The shape of `rid_overlap`'s index: 1000 keys, many RIDs per key.
    let per_key = (entries / 1000).max(1);
    let sorted: Vec<Entry> = (0..entries)
        .map(|k| Entry::new((k / per_key) as i64, k))
        .collect();
    let mut store = FileStore::new(16);
    let tree = BTree::bulk_load(&mut store, &sorted).expect("bulk load");
    let mut lo = 0i64;
    out.push(drive(
        rec,
        "relstore.btree.range_ns_per_entry",
        "ns",
        shape.sample,
        || {
            lo = (lo + 37) % 400;
            let hits = tree.range(&store, lo, lo + 600).expect("index readable");
            black_box(&hits);
            hits.len() as u64
        },
    ));
}

/// Run every drive for one workload's shape.
pub fn run(rec: &Recorder, shape: &Shape, aux: &Database, quick: bool) -> Vec<Metric> {
    let mut out = Vec::new();
    pool_drives(rec, shape, &mut out);
    table_drives(rec, shape, aux, &mut out);
    btree_drive(rec, shape, if quick { 20_000 } else { 200_000 }, &mut out);
    core_drives(rec, shape, &mut out);
    out
}
