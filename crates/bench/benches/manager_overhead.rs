//! Host-time cost of the sharing manager's calls — the paper's "well
//! below 1% of end-to-end time" claim depends on `startSISCAN`,
//! `updateSISCANLocation`, `pr()` and `endSISCAN` being cheap even with
//! many concurrent scans. Against a simulated extent (microseconds of
//! host time) they are not: with 64 ongoing scans `update_location` takes
//! 2.0 µs and `start_scan` + `end_scan` 17 µs (9.8 µs and 445 µs before
//! ISSUE 14), about a quarter of a 64-stream run — DESIGN.md §9d.

use scanshare::{
    Location, ObjectId, ScanDesc, ScanId, ScanKind, ScanSharingManager, SharingConfig,
};
use scanshare_bench::micro::bench;
use scanshare_storage::{SimDuration, SimTime};
use std::hint::black_box;

fn desc(object: u64, lo: i64, hi: i64) -> ScanDesc {
    ScanDesc {
        kind: ScanKind::Index,
        object: ObjectId(object),
        start_key: lo,
        end_key: hi,
        est_pages: 10_000,
        est_time: SimDuration::from_secs(10),
        priority: Default::default(),
    }
}

/// A manager preloaded with `n` ongoing scans spread over 4 objects.
fn manager_with_scans(n: usize) -> (ScanSharingManager, Vec<ScanId>) {
    let mgr = ScanSharingManager::new(SharingConfig::new(100_000));
    let mut ids = Vec::new();
    for i in 0..n {
        let (id, _) = mgr.start_scan(desc((i % 4) as u64, 0, 1000), SimTime::ZERO);
        let t = SimTime::from_millis(10 * (i as u64 + 1));
        mgr.update_location(
            id,
            t,
            Location::new((i as i64 * 37) % 1000, i as u64 * 131),
            64,
        );
        ids.push(id);
    }
    (mgr, ids)
}

fn main() {
    for &n in &[1usize, 4, 16, 64] {
        let (mgr, ids) = manager_with_scans(n);
        let mut t = 1_000_000u64;
        let mut pos = 0u64;
        bench(&format!("update_location/{n}"), || {
            t += 1000;
            pos += 16;
            black_box(mgr.update_location(
                ids[0],
                SimTime::from_micros(t),
                Location::new((pos % 1000) as i64, pos),
                16,
            ));
        });
    }

    for &n in &[1usize, 16, 64] {
        let (mgr, _) = manager_with_scans(n);
        bench(&format!("start_end_scan/{n}"), || {
            let (id, d) = mgr.start_scan(desc(0, 0, 1000), SimTime::from_secs(1));
            black_box(&d);
            mgr.end_scan(id, SimTime::from_secs(1));
        });
    }

    let (mgr, ids) = manager_with_scans(16);
    bench("pr()", || {
        black_box(mgr.page_priority(ids[7]));
    });
}
