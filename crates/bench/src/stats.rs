//! The one statistic host-time measurements share.
//!
//! Virtual-time metrics are bit-identical across runs, so one sample is
//! enough for them. Host-time numbers are noise around a true value and
//! are measured by `benchmark/` (replicated, alternating pairs); it
//! summarises its samples with [`median`].

/// Median of a sample (average of the two middle elements for even
/// sizes). Returns 0.0 for an empty slice — callers render that as an
/// absent measurement, never as NaN.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_degenerate_sizes() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
