//! Parallel multi-run driver: fan independent simulations across threads.
//!
//! A single simulated run is inherently sequential — it is one
//! discrete-event loop over virtual time — but experiments rarely need
//! just one run. Sweeps (`exp fairness`, `exp disks`), the perf gate's
//! base/scan-sharing pair, and parameter studies all execute *independent*
//! `run_workload` invocations that only meet again at reporting time.
//! This module spreads those invocations over a bounded pool of scoped
//! threads.
//!
//! # Determinism
//!
//! Results are **bit-identical regardless of worker count**. Each run is
//! a pure function of `(db, spec)` — the simulator takes no wall-clock
//! input and shares no mutable state between runs — and [`par_map`]
//! returns results in input order, so `--jobs 8` produces byte-for-byte
//! the same reports as `--jobs 1`. Only the wall-clock time changes.
//!
//! Work is distributed by an atomic work-stealing index rather than
//! pre-chunking, so a long run (say the scan-sharing leg of a pair)
//! never strands short runs behind it on the same worker.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `items` on up to `jobs` scoped worker threads, returning
/// results in input order.
///
/// `jobs` is clamped to `[1, items.len()]`; `jobs <= 1` runs inline on
/// the caller's thread with no spawning at all. `f` receives the item's
/// index alongside the item so callers can label work without capturing
/// mutable state.
///
/// # Panics
///
/// Propagates a panic from `f` after the remaining workers drain.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(move || {
                    let mut got: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        got.push((i, f(i, item)));
                    }
                    got
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("par_map worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::error::EngineResult;
    use crate::metrics::RunReport;
    use crate::workload::{run_workload, WorkloadSpec};

    #[test]
    fn par_map_keeps_input_order() {
        let items: Vec<u64> = (0..37).collect();
        let doubled = par_map(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_inline_when_single_job() {
        // jobs = 0 and jobs = 1 both run on the caller's thread.
        let caller = std::thread::current().id();
        for jobs in [0, 1] {
            let seen = par_map(jobs, &[10, 20], |_, &x| (std::thread::current().id(), x));
            assert!(seen.iter().all(|(t, _)| *t == caller));
            assert_eq!(seen.iter().map(|&(_, x)| x).collect::<Vec<_>>(), [10, 20]);
        }
    }

    #[test]
    fn par_map_handles_more_jobs_than_items() {
        let out = par_map(16, &[1, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn par_map_empty_input() {
        let out: Vec<i32> = par_map(8, &[], |_, x: &i32| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn reports_are_bit_identical_across_worker_counts() {
        use crate::cost::{CpuClass, EngineConfig};
        use crate::query::{Access, AggSpec, Pred, Query, ScanSpec};
        use crate::workload::{SharingMode, Stream};
        use scanshare::SharingConfig;
        use scanshare_relstore::{ColType, Column, Schema, Value};
        use scanshare_storage::SimDuration;

        let mut db = Database::new(16);
        let schema = Schema::new(vec![
            Column::new("month", ColType::Int32),
            Column::new("amount", ColType::Float64),
        ]);
        db.create_mdc_table(
            "lineitem",
            schema,
            16,
            (0..60_000).map(|i| ((i % 12) as i64, vec![Value::I32(i % 12), Value::F64(1.0)])),
        )
        .unwrap();
        let q = Query::single(
            "Q6",
            ScanSpec {
                table: "lineitem".into(),
                access: Access::IndexRange { lo: 0, hi: 11 },
                pred: Pred::True,
                agg: AggSpec::sums(vec![1]),
                cpu: CpuClass::io_bound(),
                require_order: false,
                query_priority: Default::default(),
                repeat: 1,
            },
        );
        let streams: Vec<Stream> = (0..3)
            .map(|i| Stream {
                queries: vec![q.clone()],
                start_offset: SimDuration::from_millis(i * 50),
            })
            .collect();
        let spec = |mode| WorkloadSpec {
            streams: streams.clone(),
            pool_pages: 128,
            engine: EngineConfig::default(),
            mode,
            faults: Default::default(),
            slo: Default::default(),
        };
        // Include a faulted spec: retry/backoff bookkeeping must be as
        // schedule-independent as the clean runs.
        let faulted = {
            use crate::faults::FaultsConfig;
            use scanshare_storage::{FaultKind, FaultPlan, FaultRule};
            let mut s = spec(SharingMode::ScanSharing(SharingConfig::new(0)));
            s.faults = FaultsConfig {
                plan: FaultPlan {
                    seed: 7,
                    rules: vec![FaultRule {
                        device: None,
                        pages: None,
                        from_us: 0,
                        until_us: None,
                        fault: FaultKind::TransientError { probability: 0.02 },
                    }],
                },
                ..FaultsConfig::default()
            };
            s
        };
        let specs = vec![
            spec(SharingMode::Base),
            spec(SharingMode::ScanSharing(SharingConfig::new(0))),
            spec(SharingMode::Base),
            faulted,
        ];
        let render = |reports: Vec<EngineResult<RunReport>>| -> Vec<String> {
            reports
                .into_iter()
                .map(|r| serde_json::to_string(&r.unwrap()).unwrap())
                .collect()
        };
        let run = |jobs| par_map(jobs, &specs, |_, s| run_workload(&db, s));
        let serial = render(run(1));
        for jobs in [2, 3, 8] {
            assert_eq!(render(run(jobs)), serial);
        }

        // Profiled runs stay schedule-independent on the virtual clock:
        // each run records into its own profiler, and the virtual-time
        // projection of the summary is byte-identical for any `--jobs`.
        let profiled = |jobs: usize| -> Vec<String> {
            use crate::workload::{run_workload_hooked, RunHooks};
            use scanshare::SpanProfiler;
            par_map(jobs, &specs, |_, spec| {
                let profiler = SpanProfiler::default();
                let hooks = RunHooks {
                    profiler: Some(profiler.clone()),
                    ..RunHooks::default()
                };
                run_workload_hooked(&db, spec, hooks).unwrap();
                serde_json::to_string(&profiler.summary().virtual_only()).unwrap()
            })
        };
        let profiled_serial = profiled(1);
        for jobs in [2, 8] {
            assert_eq!(profiled(jobs), profiled_serial);
        }
    }
}
