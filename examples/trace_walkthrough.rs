//! Run a small shared workload and print what its decision log says about
//! every scan: the query it ran for, how placement started it ("join
//! scan 0"), its wrap-arounds and throttle waits, and when it ended —
//! the view `scanshare trace` prints from a saved report.
//!
//! ```sh
//! cargo run --release --example trace_walkthrough
//! ```

use scanshare_repro::core::decision::render_lifecycles;
use scanshare_repro::core::SharingConfig;
use scanshare_repro::engine::{run_workload, SharingMode};
use scanshare_repro::storage::SimDuration;
use scanshare_repro::tpch::{generate, q6, staggered_workload, TpchConfig};

fn main() {
    let cfg = TpchConfig {
        scale: 0.3,
        ..TpchConfig::default()
    };
    println!("generating database (scale {}) ...", cfg.scale);
    let db = generate(&cfg);
    let q = q6(cfg.months as i64, cfg.seed);

    let spec = staggered_workload(
        &db,
        &q,
        4,
        SimDuration::from_millis(40),
        SharingMode::ScanSharing(SharingConfig::new(0)),
    );
    // A sharing run always keeps its decision log in the report.
    let report = run_workload(&db, &spec).expect("run");

    println!("\n--- scan lifecycles ---");
    print!("{}", render_lifecycles(&report.decisions));
    println!(
        "--- end of log ({} decisions) ---\n",
        report.decisions.len()
    );

    println!(
        "run finished in {:.2}s: {} pages read, {} seeks, {} joins, {} throttle waits",
        report.makespan.as_secs_f64(),
        report.disk.pages_read,
        report.disk.seeks,
        report.sharing.scans_joined + report.sharing.scans_joined_finished,
        report.sharing.waits_injected
    );
}
