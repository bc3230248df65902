//! A tiny self-calibrating micro-benchmark harness, replacing the
//! external `criterion` dev-dependency (unresolvable offline).
//!
//! Each measurement warms the closure up, picks an iteration count that
//! makes one sample take a few milliseconds of host time, runs several
//! samples, and reports the median (host) nanoseconds per iteration —
//! enough fidelity to spot the order-of-magnitude regressions these
//! benches exist to catch. Benchmarks run with `cargo bench --offline`;
//! pass a substring as the first CLI argument to filter by name.

use std::time::Instant;

/// Target host time for one sample.
const SAMPLE_TARGET_NS: u128 = 5_000_000;
/// Samples per benchmark.
const SAMPLES: usize = 7;

/// Run one benchmark: report median ns/iteration of `f` under `name`.
///
/// Respects a substring filter given as the process's first argument, so
/// `cargo bench --bench uncovered -- btree` runs only matching benches.
pub fn bench<F: FnMut()>(name: &str, mut f: F) {
    if let Some(filter) = std::env::args().nth(1) {
        if !filter.starts_with('-') && !name.contains(&filter) {
            return;
        }
    }

    // Warm-up and calibration: run until we have a per-iter estimate.
    let mut warm_iters = 1u64;
    let per_iter_ns = loop {
        let t0 = Instant::now();
        for _ in 0..warm_iters {
            f();
        }
        let dt = t0.elapsed().as_nanos();
        if dt > 1_000_000 || warm_iters >= 1 << 20 {
            break (dt / warm_iters as u128).max(1);
        }
        warm_iters *= 2;
    };
    let iters = ((SAMPLE_TARGET_NS / per_iter_ns) as u64).clamp(1, 10_000_000);

    let mut samples: Vec<u128> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() / iters as u128
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let (lo, hi) = (samples[0], samples[samples.len() - 1]);
    println!(
        "{name:<44} {:>12}   [{} .. {}]  ({iters} iters/sample)",
        fmt_ns(median),
        fmt_ns(lo),
        fmt_ns(hi),
    );
}

/// Run a benchmark over a sequence of parameterized cases, labelling
/// each as `group/param`.
pub fn bench_cases<P: std::fmt::Display, F: FnMut(&P)>(group: &str, params: &[P], mut f: F) {
    for p in params {
        bench(&format!("{group}/{p}"), || f(p));
    }
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 10_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}
