//! Bucketed time series.
//!
//! Figures 17 and 18 of the paper plot the amount of data read from disk
//! and the number of seeks per fixed unit of time. [`TimeSeries`] is the
//! accumulator behind those plots: events are binned into fixed-width
//! buckets of simulated time.

use serde::{Deserialize, Serialize};

use crate::sim::SimTime;

/// A monotonically growing, bucketed counter over simulated time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    bucket_us: u64,
    buckets: Vec<u64>,
}

impl Default for TimeSeries {
    /// An empty series with one-second buckets (the disk model's default
    /// bucket width). Exists so reports can `#[serde(default)]` series
    /// fields added after their artifacts were written.
    fn default() -> Self {
        TimeSeries::new(1_000_000)
    }
}

impl TimeSeries {
    /// Create a series with the given bucket width in microseconds.
    pub fn new(bucket_us: u64) -> Self {
        assert!(bucket_us > 0, "bucket width must be positive");
        TimeSeries {
            bucket_us,
            buckets: Vec::new(),
        }
    }

    /// Bucket width in microseconds.
    pub fn bucket_us(&self) -> u64 {
        self.bucket_us
    }

    /// Add `amount` to the bucket containing `at`.
    pub fn add(&mut self, at: SimTime, amount: u64) {
        let idx = (at.as_micros() / self.bucket_us) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += amount;
    }

    /// The per-bucket totals, one entry per bucket from time zero.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Re-bin into `n` equal-width buckets spanning the series, averaging
    /// nothing: amounts are summed. Useful to print a fixed-width chart
    /// regardless of run length.
    pub fn rebin(&self, n: usize) -> Vec<u64> {
        assert!(n > 0);
        if self.buckets.is_empty() {
            return vec![0; n];
        }
        let mut out = vec![0u64; n];
        let len = self.buckets.len();
        for (i, &v) in self.buckets.iter().enumerate() {
            let target = i * n / len;
            out[target] += v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_their_bucket() {
        let mut s = TimeSeries::new(1_000_000); // 1s buckets
        s.add(SimTime::from_millis(500), 3);
        s.add(SimTime::from_millis(999), 1);
        s.add(SimTime::from_millis(1000), 7);
        assert_eq!(s.buckets(), &[4, 7]);
        assert_eq!(s.total(), 11);
    }

    #[test]
    fn buckets_grow_on_demand() {
        let mut s = TimeSeries::new(100);
        s.add(SimTime::from_micros(950), 1);
        assert_eq!(s.buckets().len(), 10);
        assert_eq!(s.buckets()[9], 1);
        assert!(s.buckets()[..9].iter().all(|&v| v == 0));
    }

    #[test]
    fn an_amount_lands_in_the_bucket_its_time_falls_in() {
        let mut s = TimeSeries::new(500_000);
        s.add(SimTime::from_millis(600), 2);
        assert_eq!(s.buckets(), [0, 2]);
    }

    #[test]
    fn rebin_preserves_total() {
        let mut s = TimeSeries::new(10);
        for i in 0..100 {
            s.add(SimTime::from_micros(i * 10), i);
        }
        let r = s.rebin(7);
        assert_eq!(r.iter().sum::<u64>(), s.total());
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn rebin_of_empty_series_is_zeroes() {
        let s = TimeSeries::new(10);
        assert_eq!(s.rebin(3), vec![0, 0, 0]);
    }
}
