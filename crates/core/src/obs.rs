//! Lock-cheap metrics primitives and a snapshotable registry.
//!
//! The paper's whole evaluation is an observability exercise: Figures
//! 15–20 plot hit ratios, seeks, leader–trailer distances and throttle
//! waits *over virtual time*, not just end-of-run aggregates. This module
//! supplies the plumbing every layer records into:
//!
//! * [`Counter`] and [`Gauge`] — single atomics, no locks on the hot
//!   path,
//! * [`Histogram`] — power-of-two latency buckets plus an exact window of
//!   the first samples, so small runs report exact p50/p95/p99 and large
//!   runs report tight bucket upper bounds,
//! * [`Series`] — `(virtual time, value)` samples for time-series plots,
//! * [`MetricsRegistry`] — a shared, cloneable name → instrument map that
//!   can be [snapshotted](MetricsRegistry::snapshot) at any virtual time
//!   into a fully serializable [`MetricsSnapshot`].
//!
//! Instruments are cheap handles (an `Arc` around atomics); cloning one
//! out of the registry once and recording through it costs one or two
//! atomic RMWs per event. Only registration (`registry.counter("x")`)
//! takes a lock.

pub mod span;

use parking_lot::Mutex;
use scanshare_storage::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of exactly-retained samples per histogram. While a histogram
/// holds at most this many samples, quantiles are exact; past it they
/// fall back to power-of-two bucket upper bounds.
pub const EXACT_WINDOW: usize = 256;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64` (distances, ratios, counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Set the current value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

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

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; N_BUCKETS],
    /// The first [`EXACT_WINDOW`] samples, verbatim.
    window: Mutex<Vec<u64>>,
}

/// A latency histogram with power-of-two buckets (one bucket per
/// leading-bit position of the microsecond value).
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
                buckets: [(); N_BUCKETS].map(|_| AtomicU64::new(0)),
                window: Mutex::new(Vec::new()),
            }),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample (typically a latency in microseconds).
    pub fn record(&self, v: u64) {
        let h = &*self.inner;
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        let mut w = h.window.lock();
        if w.len() < EXACT_WINDOW {
            w.push(v);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Freeze the current state into a serializable snapshot.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let h = &*self.inner;
        let count = h.count.load(Ordering::Relaxed);
        let buckets = h
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then_some(HistogramBucket {
                    le: bucket_upper(i),
                    count,
                })
            })
            .collect();
        let mut snap = HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                h.min.load(Ordering::Relaxed)
            },
            max: h.max.load(Ordering::Relaxed),
            buckets,
            window: h.window.lock().clone(),
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
    /// Registry name.
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

#[derive(Debug, Default)]
struct SeriesInner {
    points: Vec<SeriesPoint>,
}

/// A `(virtual time, value)` sample series, appended by the engine's
/// interval sampler.
#[derive(Debug, Clone, Default)]
pub struct Series {
    inner: Arc<Mutex<SeriesInner>>,
}

impl Series {
    /// A fresh, empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Append a sample taken at virtual time `at`.
    pub fn push(&self, at: SimTime, value: f64) {
        self.inner.lock().points.push(SeriesPoint {
            at_us: at.as_micros(),
            value,
        });
    }

    /// Number of samples so far.
    pub fn len(&self) -> usize {
        self.inner.lock().points.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freeze the samples recorded so far under `name`.
    pub fn snapshot(&self, name: &str) -> SeriesSnapshot {
        SeriesSnapshot {
            name: name.to_string(),
            points: self.inner.lock().points.clone(),
        }
    }
}

/// One sample of a [`Series`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Virtual time of the sample, in microseconds.
    pub at_us: u64,
    /// Sampled value.
    pub value: f64,
}

/// Frozen state of one [`Series`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Registry name.
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
    /// Registry name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A gauge's frozen value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Registry name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// Everything a [`MetricsRegistry`] held at one virtual instant. Fully
/// serializable — this is what `RunReport` embeds and the CLI replays.
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

/// Instruments by name. Ordered maps, so a snapshot walks each kind in
/// name order and a lookup costs a handful of comparisons however many
/// names a long run has registered.
#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Series>,
}

fn get_or_insert<T: Clone + Default>(map: &mut BTreeMap<String, T>, name: &str) -> T {
    if let Some(v) = map.get(name) {
        return v.clone();
    }
    map.entry(name.to_string()).or_default().clone()
}

/// A shared name → instrument map. Cloning the registry (or an instrument
/// handle out of it) is cheap; all clones observe the same values.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .field("series", &inner.series.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_insert(&mut self.inner.lock().counters, name)
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_insert(&mut self.inner.lock().gauges, name)
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_insert(&mut self.inner.lock().histograms, name)
    }

    /// The series registered under `name`, created on first use.
    pub fn series(&self, name: &str) -> Series {
        get_or_insert(&mut self.inner.lock().series, name)
    }

    /// Freeze every instrument at virtual time `at`. Instruments are
    /// sorted by name, so snapshots of identical runs are identical.
    pub fn snapshot(&self, at: SimTime) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let counters = inner.counters.iter().map(|(n, c)| CounterSample {
            name: n.clone(),
            value: c.get(),
        });
        let gauges = inner.gauges.iter().map(|(n, g)| GaugeSample {
            name: n.clone(),
            value: g.get(),
        });
        let histograms = inner.histograms.iter().map(|(n, h)| h.snapshot(n));
        let series = inner.series.iter().map(|(n, s)| s.snapshot(n));
        MetricsSnapshot {
            at,
            counters: counters.collect(),
            gauges: gauges.collect(),
            histograms: histograms.collect(),
            series: series.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_share_state_across_clones() {
        let r = MetricsRegistry::new();
        let c1 = r.counter("reads");
        let c2 = r.counter("reads");
        c1.inc();
        c2.add(4);
        assert_eq!(r.counter("reads").get(), 5);
        let g = r.gauge("distance");
        g.set(37.5);
        assert_eq!(r.gauge("distance").get(), 37.5);
    }

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
        let h = Histogram::new();
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
        let h = Histogram::new();
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
        let h = Histogram::new();
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
        let h = Histogram::new();
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
        let h = Histogram::new();
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

    #[test]
    fn series_record_time_and_value() {
        let r = MetricsRegistry::new();
        let s = r.series("hit_ratio");
        s.push(SimTime::from_millis(100), 0.5);
        s.push(SimTime::from_millis(200), 0.75);
        let snap = r.snapshot(SimTime::from_millis(200));
        let ss = snap.series("hit_ratio").unwrap();
        assert_eq!(ss.points.len(), 2);
        assert_eq!(ss.points[0].at_us, 100_000);
        assert_eq!(ss.max_value(), 0.75);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = MetricsRegistry::new();
        r.counter("z").inc();
        r.counter("a").add(2);
        r.gauge("m").set(1.0);
        r.histogram("h").record(7);
        r.series("s").push(SimTime::ZERO, 3.0);
        let snap = r.snapshot(SimTime::from_secs(1));
        assert_eq!(snap.at, SimTime::from_secs(1));
        assert_eq!(snap.counters[0].name, "a");
        assert_eq!(snap.counters[1].name, "z");
        assert_eq!(snap.counter("z"), Some(1));
        assert_eq!(snap.gauge("m"), Some(1.0));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.series("s").unwrap().points.len(), 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = MetricsRegistry::new();
        r.counter("reads").add(42);
        r.gauge("group.0.distance_pages").set(160.0);
        let h = r.histogram("read_us");
        for v in [3u64, 900, 14, 7_000_000] {
            h.record(v);
        }
        r.series("pool.hit_ratio").push(SimTime::from_secs(2), 0.25);
        let snap = r.snapshot(SimTime::from_secs(3));
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        // Quantiles recomputed from the deserialized snapshot agree.
        assert_eq!(
            back.histogram("read_us").unwrap().quantile(0.5),
            snap.histogram("read_us").unwrap().p50
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = MetricsRegistry::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = r.counter("n");
            let h = r.histogram("h");
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    c.inc();
                    h.record(i);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let snap = r.snapshot(SimTime::ZERO);
        assert_eq!(snap.counter("n"), Some(4000));
        assert_eq!(snap.histogram("h").unwrap().count, 4000);
    }
}
