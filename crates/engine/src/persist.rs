//! Database persistence: save a loaded [`Database`] to a single file and
//! reload it later, preserving the exact physical layout (so disk-model
//! seek behavior — and therefore every experiment — is identical to a
//! freshly generated database).
//!
//! File format (little-endian):
//!
//! ```text
//! magic  b"SCANSHAREDB\x01"
//! u64    catalog length
//! bytes  catalog JSON (CatalogOnDisk: tables, volume, page counts)
//! bytes  raw pages: files in id order, each file's pages in order
//! ```

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use bytes::Bytes;
use scanshare_relstore::TableMeta;
use scanshare_storage::{FileId, FileStore, PageId, Volume, PAGE_SIZE};
use serde::{Deserialize, Serialize};

use crate::db::Database;
use crate::error::{EngineError, EngineResult};

const MAGIC: &[u8; 12] = b"SCANSHAREDB\x01";

#[derive(Serialize, Deserialize)]
struct CatalogOnDisk {
    extent_pages: u32,
    tables: Vec<TableMeta>,
    /// `(file, extent_no, physical base)` volume rows.
    volume: Vec<(u32, u32, u64)>,
    /// Pages per file, in file-id order.
    file_pages: Vec<u32>,
}

fn io_err(e: std::io::Error) -> EngineError {
    EngineError::Storage(scanshare_storage::StorageError::Corrupt(format!(
        "database file I/O: {e}"
    )))
}

fn corrupt(msg: impl Into<String>) -> EngineError {
    EngineError::Storage(scanshare_storage::StorageError::Corrupt(msg.into()))
}

/// Save `db` to `path`.
pub fn save(db: &Database, path: impl AsRef<Path>) -> EngineResult<()> {
    let store = db.store();
    let catalog = CatalogOnDisk {
        extent_pages: store.volume().extent_pages(),
        tables: db
            .table_names()
            .iter()
            .map(|n| db.table(n).expect("listed table").clone())
            .collect(),
        volume: store
            .volume()
            .entries()
            .into_iter()
            .map(|(f, e, b)| (f.0, e, b))
            .collect(),
        file_pages: (0..store.num_files())
            .map(|f| store.num_pages(FileId(f)).expect("file exists"))
            .collect(),
    };
    let json = serde_json::to_vec(&catalog).map_err(|e| corrupt(format!("catalog: {e}")))?;

    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC).map_err(io_err)?;
    w.write_all(&(json.len() as u64).to_le_bytes())
        .map_err(io_err)?;
    w.write_all(&json).map_err(io_err)?;
    for f in 0..store.num_files() {
        let n = store.num_pages(FileId(f)).expect("file exists");
        for p in 0..n {
            let page = store
                .read_page(PageId::new(FileId(f), p))
                .expect("page exists");
            w.write_all(&page).map_err(io_err)?;
        }
    }
    w.flush().map_err(io_err)?;
    Ok(())
}

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

/// Load a database previously written by [`save`].
pub fn load(path: impl AsRef<Path>) -> EngineResult<Database> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let mut r = BufReader::new(file);

    let mut magic = [0u8; 12];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(corrupt("not a scanshare database file (bad magic)"));
    }
    let mut len = [0u8; 8];
    r.read_exact(&mut len).map_err(io_err)?;
    let len = u64::from_le_bytes(len) as usize;
    if len > 1 << 30 {
        return Err(corrupt("catalog unreasonably large"));
    }
    let mut json = vec![0u8; len];
    r.read_exact(&mut json).map_err(io_err)?;
    let catalog: CatalogOnDisk =
        serde_json::from_slice(&json).map_err(|e| corrupt(format!("catalog: {e}")))?;

    let mut files = Vec::with_capacity(catalog.file_pages.len());
    for &n in &catalog.file_pages {
        let mut pages = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let mut buf = vec![0u8; PAGE_SIZE];
            r.read_exact(&mut buf).map_err(io_err)?;
            pages.push(Bytes::from(buf));
        }
        files.push(pages);
    }
    // Trailing garbage means the file is not what save() wrote.
    let mut extra = [0u8; 1];
    match r.read(&mut extra).map_err(io_err)? {
        0 => {}
        _ => return Err(corrupt("trailing bytes after page data")),
    }

    let volume_rows: Vec<(FileId, u32, u64)> = catalog
        .volume
        .iter()
        .map(|&(f, e, b)| (FileId(f), e, b))
        .collect();
    let volume = Volume::from_entries(catalog.extent_pages, &volume_rows);
    let store = FileStore::from_parts(volume, files)?;
    Ok(Database::from_parts(store, catalog.tables)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CpuClass, EngineConfig};
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
            schema.clone(),
            8,
            (0..30_000).map(|i| ((i % 6) as i64, vec![Value::I32(i % 6), Value::F64(1.5)])),
        )
        .unwrap();
        db.create_heap_table_with_index(
            "orders",
            schema,
            0,
            (0..10_000).map(|i| vec![Value::I32(i % 9), Value::F64(2.0)]),
        )
        .unwrap();
        db
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "scanshare_persist_{name}_{}.db",
            std::process::id()
        ))
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let db = build_db();
        let path = tmp("roundtrip");
        save(&db, &path).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(db.table_names(), loaded.table_names());
        assert_eq!(db.total_table_pages(), loaded.total_table_pages());
        // Physical layout is identical page by page.
        let f = db.table("lineitem").unwrap().file();
        for p in [0u32, 7, 33] {
            let a = db.store().read_page(PageId::new(f, p)).unwrap();
            let b = loaded.store().read_page(PageId::new(f, p)).unwrap();
            assert_eq!(a, b);
            assert_eq!(
                db.store().physical(PageId::new(f, p)).unwrap(),
                loaded.store().physical(PageId::new(f, p)).unwrap()
            );
        }
        // The RID index survived.
        assert!(loaded.table("orders").unwrap().rid_index.is_some());
    }

    #[test]
    fn queries_on_a_reloaded_database_match() {
        let db = build_db();
        let path = tmp("queries");
        save(&db, &path).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let q = Query::single(
            "sum",
            ScanSpec {
                table: "lineitem".into(),
                access: Access::IndexRange { lo: 1, hi: 4 },
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
            mode: SharingMode::Base,
            faults: Default::default(),
            slo: Default::default(),
        };
        let a = run_workload(&db, &spec).unwrap();
        let b = run_workload(&loaded, &spec).unwrap();
        assert_eq!(a.queries[0].result, b.queries[0].result);
        assert_eq!(a.disk.pages_read, b.disk.pages_read);
        assert_eq!(a.disk.seeks, b.disk.seeks);
        assert_eq!(a.makespan, b.makespan);
    }

    /// A reloaded database decodes its RID index once, in `from_parts`:
    /// overlapping RID scans that join, wrap and back up over it report
    /// exactly what they report over the database that was saved.
    #[test]
    fn rid_runs_on_a_reloaded_database_report_the_same_bytes() {
        let db = build_db();
        let path = tmp("rid");
        save(&db, &path).unwrap();
        let loaded = load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let rid = |lo, hi| {
            Query::single(
                "rid",
                ScanSpec {
                    table: "orders".into(),
                    access: Access::RidRange { lo, hi },
                    pred: Pred::True,
                    agg: AggSpec::sums(vec![1]),
                    cpu: CpuClass::io_bound(),
                    require_order: false,
                    query_priority: Default::default(),
                    repeat: 1,
                },
            )
        };
        let spec = WorkloadSpec {
            // Three overlapping streams, then one alone whose scans start
            // where the previous one ended.
            streams: (0..4)
                .map(|i| Stream {
                    queries: vec![rid(i % 3, i % 3 + 5), rid(2, 8)],
                    start_offset: SimDuration::from_millis([0, 2, 4, 60_000][i as usize]),
                })
                .collect(),
            pool_pages: 16,
            engine: EngineConfig::default(),
            mode: SharingMode::ScanSharing(scanshare::SharingConfig::new(0)),
            faults: Default::default(),
            slo: Default::default(),
        };
        let a = run_workload(&db, &spec).unwrap();
        let b = run_workload(&loaded, &spec).unwrap();
        let saw = |what: fn(&scanshare::DecisionEvent) -> bool| {
            a.decisions.iter().any(|r| what(&r.event))
        };
        assert!(saw(|e| matches!(
            e,
            scanshare::DecisionEvent::ScanWrapped { .. }
        )));
        assert!(saw(|e| matches!(
            e,
            scanshare::DecisionEvent::GroupJoin { back_up_pages, .. } if *back_up_pages > 0
        )));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
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
            mode: SharingMode::ScanSharing(scanshare::SharingConfig::with_policy(
                0,
                scanshare::SharingPolicyKind::Attach,
            )),
            faults: Default::default(),
            slo: Default::default(),
        };
        let report = run_workload(&db, &spec).unwrap();
        assert_eq!(report.policy, Some(scanshare::SharingPolicyKind::Attach));

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

    #[test]
    fn bad_files_are_rejected() {
        let path = tmp("bad");
        std::fs::write(&path, b"definitely not a database").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("magic") || err.to_string().contains("I/O"));
        std::fs::remove_file(&path).ok();

        // Truncated file.
        let db = build_db();
        let path = tmp("trunc");
        save(&db, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(load(&path).is_err());
        // Trailing garbage.
        let mut extended = full.clone();
        extended.push(0x55);
        std::fs::write(&path, &extended).unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
