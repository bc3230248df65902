//! The micro-benchmarks no `BENCHMARK.json` per-layer drive prices.
//!
//! `benchmark/src/layers.rs` measures the pool paths, `update_location`,
//! `start_scan` + `end_scan`, `find_leaders_trailers` and
//! `best_start_practical` at L ∈ {8, 32, 64}, the B+ tree range scan and
//! the row kernel, under a better protocol than this harness has. What is
//! left here are the cases it lacks (ROADMAP item 8(d) lists them as
//! drives to add): the optimal placement search, `pr()`, the B+ tree bulk
//! load, and the degenerate 64-scan shapes — one anchor chain, one
//! group — where the grouping pass and the practical search used to be
//! quadratic and cubic (ISSUE 14: 9.5 → 1.7 µs and 33.1 → 1.4 ms).
//! Pass a substring as the first argument to run matching cases only.

use scanshare::anchor::AnchorId;
use scanshare::grouping::find_leaders_trailers;
use scanshare::placement::{best_start_optimal, best_start_practical, Trace};
use scanshare::{
    Location, ObjectId, ScanDesc, ScanId, ScanKind, ScanSharingManager, SharingConfig,
};
use scanshare_bench::micro::bench;
use scanshare_relstore::{BTree, Entry};
use scanshare_storage::{FileStore, SimDuration, SimTime};
use std::hint::black_box;

/// The paper bounds the "interesting locations" search at O(|S|³); this
/// implementation adds the estimator's grid and a sort per cell.
fn placement() {
    for &n in &[1usize, 4, 16, 32] {
        let members: Vec<Trace> = (0..n)
            .map(|i| {
                let pos = (i as f64 * 137.0) % 5000.0;
                let speed = 50.0 + (i as f64 * 17.0) % 300.0;
                Trace::new(pos, speed, pos + 2000.0)
            })
            .collect();
        bench(&format!("best_start_optimal/{n}"), || {
            black_box(best_start_optimal(
                &members,
                100.0,
                2000.0,
                500.0,
                (0.0, 5000.0),
            ));
        });
    }

    // The shape a 64-stream run produces when its scans do share: one
    // anchor group, members bunched on a few pages in a pool-sized window.
    let group: Vec<Trace> = (0..64)
        .map(|i| {
            let pos = 4000.0 + ((i / 4) * 16) as f64;
            Trace::new(pos, 90.0 + (i % 7) as f64 * 5.0, 6000.0)
        })
        .collect();
    bench("best_start_practical_one_group_64", || {
        black_box(best_start_practical(&group, 100.0, 2000.0, 500.0));
    });
}

/// 64 scans on one anchor: under a small budget the pass stops at the
/// first gap; above the chain's whole extent all 63 gaps merge.
fn grouping() {
    let scans: Vec<(ScanId, AnchorId, i64)> = (0..64)
        .map(|i| (ScanId(i as u64), AnchorId(0), (i * 7919) % 100_000))
        .collect();
    bench("find_leaders_trailers_single_chain_64", || {
        black_box(find_leaders_trailers(&scans, 50_000));
    });
    bench("find_leaders_trailers_one_group_64", || {
        black_box(find_leaders_trailers(&scans, 1_000_000));
    });
}

/// `ISM.pr()` with 16 ongoing scans spread over 4 objects.
fn page_priority() {
    let mgr = ScanSharingManager::new(SharingConfig::new(100_000));
    let mut ids = Vec::new();
    for i in 0..16u64 {
        let desc = ScanDesc {
            kind: ScanKind::Index,
            object: ObjectId(i % 4),
            start_key: 0,
            end_key: 1000,
            est_pages: 10_000,
            est_time: SimDuration::from_secs(10),
            priority: Default::default(),
        };
        let (id, _) = mgr.start_scan(desc, SimTime::ZERO);
        let at = SimTime::from_millis(10 * (i + 1));
        mgr.update_location(id, at, Location::new((i as i64 * 37) % 1000, i * 131), 64);
        ids.push(id);
    }
    bench("pr()", || {
        black_box(mgr.page_priority(ids[7]));
    });
}

fn btree() {
    for &n in &[1_000usize, 10_000, 100_000] {
        let entries: Vec<Entry> = (0..n as i64).map(|k| Entry::new(k / 8, k as u64)).collect();
        bench(&format!("btree_bulk_load/{n}"), || {
            let mut store = FileStore::new(16);
            black_box(BTree::bulk_load(&mut store, &entries).unwrap());
        });
    }
}

fn main() {
    placement();
    grouping();
    page_priority();
    btree();
}
