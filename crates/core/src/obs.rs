//! A run's metrics: the histogram it records into and the serializable
//! snapshot its report carries.
//!
//! The paper's whole evaluation is an observability exercise: Figures
//! 15–20 plot hit ratios, seeks, leader–trailer distances and throttle
//! waits *over virtual time*, not just end-of-run aggregates. A run is
//! single-threaded and records a fixed set of signals, so it keeps them
//! as plain values it owns and freezes them once, at the makespan:
//!
//! * [`Histogram`] — power-of-two latency buckets plus an exact window of
//!   the first samples, so small runs report exact p50/p95/p99 and large
//!   runs report tight bucket upper bounds; recorded through `&mut`,
//! * [`SeriesPoint`] — one `(virtual time, value)` sample; the engine's
//!   interval sampler keeps each signal's points in a `Vec`,
//! * [`MetricsSnapshot`] — counters, gauges, histograms and series by
//!   name, fully serializable; what `RunReport` embeds and the CLI
//!   replays. `engine::workload` assembles it, and is the one place
//!   that names the signals.

pub mod span;

use scanshare_storage::SimTime;
use serde::{Deserialize, Serialize};

/// Number of exactly-retained samples per histogram. While a histogram
/// holds at most this many samples, quantiles are exact; past it they
/// fall back to power-of-two bucket upper bounds.
pub const EXACT_WINDOW: usize = 256;

/// Index of the power-of-two bucket holding `v`: the bit length of `v`.
/// Bucket 0 holds only 0; bucket `i` (i ≥ 1) holds `[2^(i-1), 2^i - 1]`.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

const N_BUCKETS: usize = 65;

/// A latency histogram with power-of-two buckets (one bucket per
/// leading-bit position of the microsecond value).
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; N_BUCKETS],
    /// The first [`EXACT_WINDOW`] samples, verbatim.
    window: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; N_BUCKETS],
            window: Vec::new(),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample (typically a latency in microseconds).
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
        if self.window.len() < EXACT_WINDOW {
            self.window.push(v);
        }
    }

    /// Freeze the current state into a serializable snapshot.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(i, &count)| HistogramBucket {
                le: bucket_upper(i),
                count,
            })
            .collect();
        let mut snap = HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets,
            window: self.window.clone(),
            p50: 0,
            p95: 0,
            p99: 0,
        };
        snap.p50 = snap.quantile(0.50);
        snap.p95 = snap.quantile(0.95);
        snap.p99 = snap.quantile(0.99);
        snap
    }
}

/// One nonempty power-of-two bucket: `count` samples ≤ `le` (and greater
/// than the previous bucket's bound).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Samples in the bucket.
    pub count: u64,
}

/// Frozen state of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (see [`HistogramSnapshot::quantile`]).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Nonempty buckets in increasing bound order.
    pub buckets: Vec<HistogramBucket>,
    /// The first [`EXACT_WINDOW`] samples, for exact small-run quantiles.
    pub window: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`). Exact (nearest-rank over the
    /// retained window) while every sample is in the window; otherwise
    /// the inclusive upper bound of the bucket containing the rank,
    /// clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if self.count as usize <= self.window.len() {
            let mut sorted = self.window.clone();
            sorted.sort_unstable();
            return sorted[(rank - 1) as usize];
        }
        // Nearest rank over the buckets.
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.le.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// One `(virtual time, value)` sample of a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Virtual time of the sample, in microseconds.
    pub at_us: u64,
    /// Sampled value.
    pub value: f64,
}

/// A named series of samples.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// Samples in append order (virtual time is nondecreasing).
    pub points: Vec<SeriesPoint>,
}

impl SeriesSnapshot {
    /// The values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|p| p.value)
    }

    /// Largest sampled value (`0.0` when empty).
    pub fn max_value(&self) -> f64 {
        self.values().fold(0.0, f64::max)
    }
}

/// A counter's frozen value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A gauge's frozen value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// Every metric of a run at one virtual instant. Fully serializable —
/// this is what `RunReport` embeds and the CLI replays.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Virtual time the snapshot was taken at.
    pub at: SimTime,
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
}

impl MetricsSnapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Series `name`, if present.
    pub fn series(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Names of series starting with `prefix` (e.g. `"group."`).
    pub fn series_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a SeriesSnapshot> + 'a {
        self.series
            .iter()
            .filter(move |s| s.name.starts_with(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn small_histograms_report_exact_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot("lat");
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.sum, 5050);
        // Exact nearest-rank quantiles over the retained window.
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.quantile(1.0), 100);
    }

    #[test]
    fn large_histograms_report_bucket_upper_bounds() {
        let mut h = Histogram::new();
        // 10_000 samples uniform over 1..=1000: well past the window.
        for i in 0..10_000u64 {
            h.record(i % 1000 + 1);
        }
        let s = h.snapshot("lat");
        assert_eq!(s.count, 10_000);
        for q in [0.5, 0.95, 0.99] {
            let true_q = (q * 1000.0) as u64;
            let est = s.quantile(q);
            // The estimate is the bucket's inclusive upper bound: never
            // below the true quantile, and at most 2x it.
            assert!(est >= true_q, "q={q}: est {est} < true {true_q}");
            assert!(est <= true_q * 2, "q={q}: est {est} > 2x true {true_q}");
        }
        // Extremes clamp to observed min/max.
        assert!(s.quantile(1.0) <= s.max);
        assert!(s.quantile(0.0) >= s.min);
    }

    #[test]
    fn quantiles_at_power_of_two_bucket_boundaries() {
        // Samples sitting exactly on bucket edges: 2^i is the *first*
        // value of bucket i+1, 2^i - 1 the *last* of bucket i. Past the
        // window, a quantile answers with its bucket's inclusive upper
        // bound, so boundary values must map to the right bucket.
        let mut h = Histogram::new();
        // 300 samples of 64 (bucket 7, le 127) and 300 of 63 (bucket 6,
        // le 63): count 600 > EXACT_WINDOW forces the bucketed path.
        for _ in 0..300 {
            h.record(63);
            h.record(64);
        }
        let s = h.snapshot("edge");
        assert_eq!(s.count, 600);
        assert_eq!(
            s.buckets,
            vec![
                HistogramBucket { le: 63, count: 300 },
                HistogramBucket {
                    le: 127,
                    count: 300
                },
            ]
        );
        // Rank 300 is the last sample of the le=63 bucket; rank 301 the
        // first of the le=127 bucket (clamped to the observed max 64).
        assert_eq!(s.quantile(0.5), 63);
        assert_eq!(s.quantile(0.51), 64);
        assert_eq!(s.p99, 64);

        // A pure power-of-two ladder: each value its own bucket.
        let mut h = Histogram::new();
        for i in 0..10u32 {
            for _ in 0..100 {
                h.record(1u64 << i);
            }
        }
        let s = h.snapshot("ladder");
        assert_eq!(s.count, 1000);
        assert_eq!(s.buckets.len(), 10);
        for (i, b) in s.buckets.iter().enumerate() {
            assert_eq!(b.le, (1u64 << (i + 1)) - 1);
            assert_eq!(b.count, 100);
        }
        // The p50 rank (500) lands in bucket 5 (values of 16, le 31).
        assert_eq!(s.quantile(0.5), 31);
        // p100 clamps the le=1023 bound to the observed max 512.
        assert_eq!(s.quantile(1.0), 512);
    }

    #[test]
    fn quantile_crossover_at_exactly_the_window_size() {
        // With count == EXACT_WINDOW every sample is in the window and
        // quantiles are exact; one more sample flips to bucket bounds.
        let mut h = Histogram::new();
        for v in 1..=EXACT_WINDOW as u64 {
            h.record(v);
        }
        let s = h.snapshot("exact");
        assert_eq!(s.count as usize, EXACT_WINDOW);
        assert_eq!(s.window.len(), EXACT_WINDOW);
        // Exact nearest-rank: p50 of 1..=256 is 128, p95 is 244 (rank
        // ceil(0.95*256) = 244), p99 is 254 (rank ceil(0.99*256)).
        assert_eq!(s.p50, 128);
        assert_eq!(s.p95, 244);
        assert_eq!(s.p99, 254);

        // Sample 257 evicts nothing (the window keeps the first 256) but
        // the count now exceeds it: the same quantiles become bucket
        // upper bounds.
        h.record(EXACT_WINDOW as u64 + 1);
        let s = h.snapshot("bucketed");
        assert_eq!(s.count as usize, EXACT_WINDOW + 1);
        assert_eq!(s.window.len(), EXACT_WINDOW, "window retains first 256");
        // p50 rank 129 falls in the le=255 bucket [128, 255]; p95 rank
        // 245 and p99 rank 255 do too.
        assert_eq!(s.p50, 255);
        assert_eq!(s.p95, 255);
        assert_eq!(s.p99, 255);
        // p100 rank 257 lands in the le=511 bucket, clamped to max 257.
        assert_eq!(s.quantile(1.0), 257);
        // The estimate never undershoots what the exact path reported.
        assert!(s.p50 >= 128 && s.p95 >= 244 && s.p99 >= 254);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot("x");
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.buckets.is_empty());
    }
}
