//! Byte-identity property of the default sharing policy.
//!
//! Making the sharing policy selectable moved the grouping+throttling
//! machinery into `core::policy`, where the configuration's `placement`
//! and switches decide placement, throttling, priorities and push
//! attach. Every such re-plumbing must be pure: a run under the
//! paper's `Practical` placement (the default) has to produce a `RunReport` that
//! serializes to the *same bytes* as the pre-refactor code produced.
//! The committed artifact `results/policy_grouping_smoke_report.json`
//! was generated from the pre-refactor tree on the pinned smoke workload
//! (the one row `smoke` of `exp::TABLE` runs); this test replays the
//! workload and compares the full serialized report byte-for-byte. It
//! was regenerated when reports began writing every section, the
//! default-valued `faults`, `policy`, `profile`, `slo` and `push`
//! included; nothing else in it moved. It was last regenerated when
//! whole-page steps began folding page subtotals: the sums of
//! `queries[*].result` moved in their last bits, and every other byte,
//! every count and group key included, stayed put.
//!
//! To regenerate the artifact (only after an *intentional* report
//! change, never to paper over a policy-refactor drift):
//!
//! ```sh
//! SCANSHARE_WRITE_POLICY_BASELINE=1 cargo test -p scanshare-bench --test policy_identity
//! ```

use scanshare::SharingConfig;
use scanshare_engine::{run_workload, SharingMode};
use scanshare_tpch::{generate, throughput_workload, TpchConfig};

const ARTIFACT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/policy_grouping_smoke_report.json"
);

/// The pinned smoke workload: identical to row `smoke`'s pull-sharing
/// run (tiny scale, fixed seed, 3 streams) so its report is bit-stable
/// across machines.
fn smoke_report_json() -> String {
    let cfg = TpchConfig::tiny();
    let db = generate(&cfg);
    let spec = throughput_workload(
        &db,
        3,
        cfg.months as i64,
        cfg.seed,
        SharingMode::ScanSharing(SharingConfig::new(0)),
    );
    let report = run_workload(&db, &spec).expect("smoke run");
    serde_json::to_string(&report).expect("serialize report")
}

#[test]
fn grouping_policy_report_is_byte_identical_to_pre_refactor_baseline() {
    let current = smoke_report_json();
    if std::env::var("SCANSHARE_WRITE_POLICY_BASELINE").is_ok() {
        std::fs::write(ARTIFACT, &current).expect("write baseline artifact");
        eprintln!("wrote {ARTIFACT} ({} bytes)", current.len());
        return;
    }
    let baseline = std::fs::read_to_string(ARTIFACT).unwrap_or_else(|e| {
        panic!("cannot read {ARTIFACT}: {e} — regenerate with SCANSHARE_WRITE_POLICY_BASELINE=1")
    });
    assert_eq!(
        baseline.len(),
        current.len(),
        "report length drifted from the pre-refactor baseline"
    );
    assert!(
        baseline == current,
        "default-policy report is no longer byte-identical to the pre-refactor baseline"
    );
}
