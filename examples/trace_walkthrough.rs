//! Run a small shared workload with the event tracer attached and print
//! every sharing decision the manager made: placements ("join scan 0"),
//! wrap-arounds, throttle waits, and scan lifecycles.
//!
//! ```sh
//! cargo run --release --example trace_walkthrough
//! ```

use scanshare_repro::core::SharingConfig;
use scanshare_repro::engine::{run_workload_hooked, RunHooks, SharingMode, Tracer};
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
    let tracer = Tracer::new(10_000);
    let hooks = RunHooks {
        tracer: Some(tracer.clone()),
        ..RunHooks::default()
    };
    let report = run_workload_hooked(&db, &spec, hooks).expect("run");

    println!("\n--- event log ---");
    print!("{}", tracer.render());
    println!("--- end of log ({} events) ---\n", tracer.records().len());

    println!(
        "run finished in {:.2}s: {} pages read, {} seeks, {} joins, {} throttle waits",
        report.makespan.as_secs_f64(),
        report.disk.pages_read,
        report.disk.seeks,
        report.sharing.scans_joined + report.sharing.scans_joined_finished,
        report.sharing.waits_injected
    );
}
