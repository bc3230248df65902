//! Output check: every query of a run must return what the same spec
//! returns in `SharingMode::Base`.
//!
//! Sharing changes *when* a page is read, never *what* a query returns.
//! Counts must match exactly; float sums within 1e-9 relative, because a
//! shared scan starts mid-range and wraps, so it adds in another order.

use scanshare_engine::{QueryRecord, QueryResult, RunReport, WorkloadSpec};

const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

fn sums_match(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
}

fn results_match(a: &QueryResult, b: &QueryResult) -> bool {
    a.count == b.count
        && sums_match(&a.sums, &b.sums)
        && a.groups.len() == b.groups.len()
        && a.groups.iter().zip(&b.groups).all(|((ka, ga), (kb, gb))| {
            ka == kb && ga.count == gb.count && sums_match(&ga.sums, &gb.sums)
        })
}

/// The records of one stream, in the order the stream ran them (a
/// stream runs its queries back to back, and the report keeps each
/// stream's records in that order).
fn of_stream(r: &RunReport, stream: usize) -> impl Iterator<Item = &QueryRecord> {
    r.queries.iter().filter(move |q| q.stream == stream)
}

/// Queries the spec asks for.
pub fn attempted(spec: &WorkloadSpec) -> u64 {
    spec.streams.iter().map(|s| s.queries.len() as u64).sum()
}

/// Number of the spec's queries that `run` failed: missing from the
/// report, out of order, or answering differently from `base`.
pub fn failed(spec: &WorkloadSpec, run: &RunReport, base: &RunReport) -> u64 {
    let mut failed = 0;
    for (i, stream) in spec.streams.iter().enumerate() {
        let mut got = of_stream(run, i);
        let mut want = of_stream(base, i);
        for q in &stream.queries {
            let ok = match (got.next(), want.next()) {
                (Some(g), Some(w)) => {
                    g.name == q.name && w.name == q.name && results_match(&g.result, &w.result)
                }
                _ => false,
            };
            if !ok {
                failed += 1;
            }
        }
    }
    failed
}
