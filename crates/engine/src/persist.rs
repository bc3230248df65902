//! Run-report artifacts: save a [`crate::RunReport`] as JSON and load it
//! back — the files `scanshare run --report` writes and `metrics`,
//! `explain`, `trace`, `profile` and `diff` read.

use std::path::Path;

/// Save a [`crate::RunReport`] as pretty-printed JSON at `path` — the
/// artifact format `scanshare metrics`/`explain` reload. Every report
/// field round-trips, including the conditional sections (`faults`,
/// `policy`) that only appear when a run actually used them.
pub fn save_report(report: &crate::RunReport, path: impl AsRef<Path>) -> Result<(), String> {
    let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    std::fs::write(path.as_ref(), json)
        .map_err(|e| format!("cannot write {}: {e}", path.as_ref().display()))
}

/// Load a [`crate::RunReport`] previously written by [`save_report`]
/// (or by `scanshare run --report`). Artifacts predating a conditional
/// section simply leave it at its default.
pub fn load_report(path: impl AsRef<Path>) -> Result<crate::RunReport, String> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| format!("cannot read {}: {e}", path.as_ref().display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("invalid report {}: {e}", path.as_ref().display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CpuClass, EngineConfig};
    use crate::db::Database;
    use crate::query::{Access, AggSpec, Pred, Query, ScanSpec};
    use crate::workload::{run_workload, SharingMode, Stream, WorkloadSpec};
    use scanshare_relstore::{ColType, Column, Schema, Value};
    use scanshare_storage::SimDuration;

    fn build_db() -> Database {
        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("amount", ColType::Float64),
        ]);
        db.create_mdc_table(
            "lineitem",
            schema,
            8,
            (0..30_000).map(|i| ((i % 6) as i64, vec![Value::I32(i % 6), Value::F64(1.5)])),
        )
        .unwrap();
        db
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "scanshare_persist_{name}_{}.json",
            std::process::id()
        ))
    }

    #[test]
    fn report_artifacts_roundtrip_with_policy_stamp() {
        let db = build_db();
        let q = Query::single(
            "sum",
            ScanSpec {
                table: "lineitem".into(),
                access: Access::FullTable,
                pred: Pred::True,
                agg: AggSpec::sums(vec![1]),
                cpu: CpuClass::io_bound(),
                require_order: false,
                query_priority: Default::default(),
                repeat: 1,
            },
        );
        let spec = WorkloadSpec {
            streams: vec![Stream {
                queries: vec![q],
                start_offset: SimDuration::ZERO,
            }],
            pool_pages: 64,
            engine: EngineConfig::default(),
            mode: SharingMode::ScanSharing(scanshare::SharingConfig::baseline(
                0,
                scanshare::Placement::Attach,
            )),
            faults: Default::default(),
            slo: Default::default(),
        };
        let report = run_workload(&db, &spec).unwrap();
        assert_eq!(report.policy, Some(scanshare::Placement::Attach));

        let path = tmp("report");
        save_report(&report, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"policy\""), "policy stamp missing: {text}");
        let back = load_report(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.policy, report.policy);
        assert_eq!(back.makespan, report.makespan);
        assert_eq!(back.queries[0].result, report.queries[0].result);
    }
}
