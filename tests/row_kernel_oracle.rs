//! TPC-H Q1 and Q6 through the row kernel, held to two witnesses.
//!
//! *Truth*: the public reference evaluator — `Pred::eval`,
//! `AggSpec::group_key`, `RowRef::get_f64`, which no production code
//! calls — folded one row at a time over the table's pages in the order
//! an unshared scan delivers them must give the same `QueryResult`, bit
//! for bit. (`scan_exec`'s `kernel_oracle` unit tests cross the same
//! comparison with handcrafted pages, wraps and RID batches.)
//!
//! *Stability*: the FNV-1a digest of each result equals a constant the
//! commit preceding the page-at-a-time kernel computed — this file was
//! run in a `git archive` of that commit with `PARENT_DIGESTS` zeroed and
//! the four values its failure message printed were pasted in unedited.

use scanshare_repro::engine::exec::ExecWorld;
use scanshare_repro::engine::scan_exec::ScanExec;
use scanshare_repro::engine::{Access, Database, EngineConfig, QueryResult, ScanSpec};
use scanshare_repro::relstore::{HeapPage, RowRef};
use scanshare_repro::storage::{BufferPool, PageId, PoolConfig, ReplacementPolicy, SimTime};
use scanshare_repro::tpch::{generate, q1, q6, TpchConfig};

/// `(seed, query, digest)`, computed by the parent commit.
const PARENT_DIGESTS: [(u64, &str, u64); 4] = [
    (42, "Q1", 0xfe92a6bc39f39f6f),
    (42, "Q6", 0xd2b21abcb9be0a5f),
    (7, "Q1", 0x63eb044895550177),
    (7, "Q6", 0x99edffd9efefbce6),
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

/// The reference answer: every row of every page the access path
/// covers, in scan order, through the public evaluator.
fn naive(db: &Database, spec: &ScanSpec) -> QueryResult {
    let table = db.table(&spec.table).expect("table exists");
    let pages: Vec<u32> = match spec.access {
        Access::FullTable => (0..table.num_pages()).collect(),
        Access::IndexRange { lo, hi } => {
            let mdc = table.as_mdc().expect("clustered table");
            let blocks = mdc
                .blocks_for_range(db.store(), lo, hi)
                .expect("index reads");
            blocks
                .iter()
                .flat_map(|e| mdc.block_page_range(e.payload as u32))
                .collect()
        }
        Access::RidRange { .. } => unreachable!("Q1 and Q6 do not use RID scans"),
    };
    let n = spec.agg.sum_cols.len();
    let mut out = QueryResult {
        sums: vec![0.0; n],
        ..QueryResult::default()
    };
    for p in pages {
        let bytes = db
            .store()
            .read_page(PageId::new(table.file(), p))
            .expect("page reads");
        for row in HeapPage::new(&bytes).expect("heap page").rows() {
            let row = RowRef {
                bytes: row,
                schema: table.schema(),
            };
            if !spec.pred.eval(&row) {
                continue;
            }
            out.count += 1;
            let key = spec.agg.group_key(&row);
            let at = match out.groups.binary_search_by_key(&key, |g| g.0) {
                Ok(at) => at,
                Err(at) => {
                    out.groups.insert(at, (key, Default::default()));
                    out.groups[at].1.sums = vec![0.0; n];
                    at
                }
            };
            let g = &mut out.groups[at].1;
            g.count += 1;
            for (i, &c) in spec.agg.sum_cols.iter().enumerate() {
                out.sums[i] += row.get_f64(c);
                g.sums[i] += row.get_f64(c);
            }
        }
    }
    if spec.agg.group_by.is_empty() {
        out.groups.clear();
    }
    out
}

#[test]
fn q1_and_q6_equal_the_naive_fold_and_the_parents_digests() {
    let mut got = Vec::new();
    for seed in [42u64, 7] {
        let cfg = TpchConfig {
            seed,
            ..TpchConfig::tiny()
        };
        let db = generate(&cfg);
        for query in [q1(), q6(cfg.months as i64, seed)] {
            let spec = &query.scans[0];
            let result = kernel(&db, spec);
            assert!(
                result.count > 0,
                "{} at seed {seed} selects rows",
                query.name
            );
            let want = naive(&db, spec);
            assert_eq!(
                digest(&result),
                digest(&want),
                "{} at seed {seed}: kernel {result:?} vs naive {want:?}",
                query.name
            );
            got.push((seed, query.name.clone(), digest(&result)));
        }
    }
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
