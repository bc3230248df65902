//! Watch the sharing manager work: two scans of very different speeds on
//! the same table, with the manager's grouping, roles, and throttling
//! decisions traced step by step.
//!
//! This drives the `scanshare` core library directly (no engine), the
//! way a database integrator would: register scans, report locations
//! every extent, obey the returned waits and priorities.
//!
//! ```sh
//! cargo run --release --example adaptive_throttling
//! ```

use scanshare_repro::core::{
    Location, ObjectId, PagePriority, Role, ScanDesc, ScanKind, ScanSharingManager, SharingConfig,
};
use scanshare_repro::storage::{SimDuration, SimTime};

fn main() {
    let mgr = ScanSharingManager::new(SharingConfig::new(2_000));
    let table = ObjectId(0);
    let desc = |secs: u64| ScanDesc {
        kind: ScanKind::Table,
        object: table,
        start_key: 0,
        end_key: 9_999,
        est_pages: 10_000,
        est_time: SimDuration::from_secs(secs),
        priority: Default::default(),
    };

    // A fast scan starts; a slow one follows and is placed at its
    // position.
    let (fast, d1) = mgr.start_scan(desc(10), SimTime::ZERO);
    println!("fast scan registered: {d1:?}");
    let mut t = SimTime::ZERO;
    let mut fast_pos: u64 = 0;
    // Let the fast scan get going.
    for _ in 0..4 {
        t += SimDuration::from_millis(16);
        fast_pos += 16;
        mgr.update_location(fast, t, Location::new(fast_pos as i64, fast_pos), 16);
    }
    let (slow, d2) = mgr.start_scan(desc(40), t);
    let mut slow_pos = d2.join_location().map(|l| l.pos).unwrap_or(0);
    println!("slow scan registered: joined at page {slow_pos}\n");

    println!(
        "{:>8} {:>9} {:>9} {:>6} {:>10} {:>9} {:>9}",
        "time", "fast@", "slow@", "gap", "fast role", "wait(ms)", "fast prio"
    );
    let mut throttles = 0;
    for step in 0..40 {
        // Fast scan: 1000 pages/s -> 16 pages per 16ms.
        // Slow scan: 250 pages/s -> 16 pages per 64ms.
        t += SimDuration::from_millis(16);
        fast_pos += 16;
        let out_fast = mgr.update_location(fast, t, Location::new(fast_pos as i64, fast_pos), 16);
        if step % 4 == 3 {
            slow_pos += 16;
            mgr.update_location(slow, t, Location::new(slow_pos as i64, slow_pos), 16);
        }
        if out_fast.wait > SimDuration::ZERO {
            throttles += 1;
            // Obey the wait: the fast scan pauses (its position holds).
            t += out_fast.wait;
        }
        if step % 4 == 0 || out_fast.wait > SimDuration::ZERO {
            println!(
                "{:>8} {:>9} {:>9} {:>6} {:>10?} {:>9.1} {:>9?}",
                format!("{:.2}s", t.as_secs_f64()),
                fast_pos,
                slow_pos,
                fast_pos - slow_pos,
                out_fast.role,
                out_fast.wait.as_secs_f64() * 1e3,
                out_fast.priority,
            );
        }
    }

    println!("\n{throttles} throttle waits were injected into the fast scan.");
    let groups = mgr.probe().groups;
    println!("final groups:");
    for g in &groups {
        println!(
            "  anchor {:?}: {} member(s), extent {} pages (trailer {:?}, leader {:?})",
            g.anchor,
            g.members.len(),
            g.extent,
            g.trailer(),
            g.leader()
        );
    }
    let stats = mgr.stats();
    println!(
        "manager stats: {} joins, {} waits, {:.1}ms total wait",
        stats.scans_joined,
        stats.waits_injected,
        stats.total_wait.as_secs_f64() * 1e3
    );
    assert!(throttles > 0, "the fast leader must get throttled");
    // Once grouped, the leader releases pages with high priority and the
    // trailer with low priority.
    assert_eq!(mgr.page_priority(fast), PagePriority::High);
    assert_eq!(mgr.page_priority(slow), PagePriority::Low);
    let _ = Role::Leader;
}
