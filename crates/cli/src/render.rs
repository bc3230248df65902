//! Text rendering of saved run artifacts.
//!
//! `scanshare metrics` and `scanshare diff` replay [`RunReport`]s that a
//! previous `scanshare run --report FILE` wrote to disk: no simulation
//! happens here, only formatting of what the observability layer
//! recorded — the metrics snapshot's counters, histograms, and time
//! series drawn as fixed-width ASCII timelines, and report differences.

use scanshare::obs::{HistogramSnapshot, MetricsSnapshot, SeriesSnapshot};
use scanshare_engine::RunReport;

/// Columns in a rendered timeline.
const TIMELINE_WIDTH: usize = 48;

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Draw `s` as a fixed-width intensity strip over `[0, end_us]`: each
/// column holds the maximum sample landing in its time slice, scaled
/// against the series' global maximum into the ASCII ramp ` .:-=+*#%@`.
fn timeline(s: &SeriesSnapshot, end_us: u64, width: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let end_us = end_us.max(1);
    let peak = s.max_value();
    let mut cols = vec![f64::NEG_INFINITY; width];
    for p in &s.points {
        let idx = ((p.at_us.min(end_us - 1)) as usize * width) / end_us as usize;
        let idx = idx.min(width - 1);
        cols[idx] = cols[idx].max(p.value);
    }
    cols.iter()
        .map(|&v| {
            if v == f64::NEG_INFINITY {
                ' '
            } else if peak <= 0.0 {
                RAMP[1] as char
            } else {
                let level = ((v / peak) * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[level.clamp(1, RAMP.len() - 1)] as char
            }
        })
        .collect()
}

fn render_series_block(out: &mut String, title: &str, series: &[&SeriesSnapshot], end_us: u64) {
    if series.is_empty() {
        return;
    }
    out.push_str(&format!("== {title} ==\n"));
    let name_w = series.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for s in series {
        let last = s.points.last().map(|p| p.value).unwrap_or(0.0);
        out.push_str(&format!(
            "  {:<name_w$} |{}| last {:>10.3}  peak {:>10.3}  ({} pts)\n",
            s.name,
            timeline(s, end_us, TIMELINE_WIDTH),
            last,
            s.max_value(),
            s.points.len(),
        ));
    }
    out.push('\n');
}

fn render_histogram(out: &mut String, h: &HistogramSnapshot) {
    out.push_str(&format!(
        "  {:<20} n {:>8}  min {:>9}  p50 {:>9}  p95 {:>9}  p99 {:>9}  max {:>9}  mean {:>11.1}\n",
        h.name,
        h.count,
        h.min,
        h.p50,
        h.p95,
        h.p99,
        h.max,
        h.mean(),
    ));
}

/// Width of a bucket-count bar in `--quantiles` output.
const BUCKET_BAR: usize = 24;

/// Expand one histogram under its summary line: exact-or-bucketed
/// p50/p90/p95/p99, then every non-empty power-of-two bucket with its
/// inclusive upper bound and a count bar.
fn render_histogram_quantiles(out: &mut String, h: &HistogramSnapshot) {
    // An empty histogram has no quantiles: say so instead of printing
    // p50..p99 rows of misleading zeros (and never divide by a zero
    // peak below).
    if h.count == 0 {
        out.push_str("    quantiles   n=0 (no samples recorded)\n");
        return;
    }
    out.push_str(&format!(
        "    quantiles   p50 {:>9}  p90 {:>9}  p95 {:>9}  p99 {:>9}\n",
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.95),
        h.quantile(0.99),
    ));
    let peak = h.buckets.iter().map(|b| b.count).max().unwrap_or(0).max(1);
    for b in &h.buckets {
        let le = if b.le == u64::MAX {
            "+inf".to_string()
        } else {
            b.le.to_string()
        };
        // A single-bucket (degenerate) histogram owns the peak, so its
        // bar renders full-width rather than dividing to nothing.
        let bar = "#".repeat(((b.count * BUCKET_BAR as u64) / peak).max(1) as usize);
        out.push_str(&format!("    le {le:>12} {:>10}  {bar}\n", b.count));
    }
}

/// Render the metrics snapshot of a saved run: aggregate counters and
/// gauges, latency histograms, and every sampled time series as a
/// timeline spanning the run.
pub fn render_metrics(report: &RunReport) -> String {
    render_metrics_detailed(report, false)
}

/// [`render_metrics`] with an optional per-histogram quantile/bucket
/// expansion (`scanshare metrics --quantiles`).
pub fn render_metrics_detailed(report: &RunReport, quantiles: bool) -> String {
    let m: &MetricsSnapshot = &report.metrics;
    let end_us = m.at.as_micros().max(report.makespan.as_micros());
    let mut out = String::new();
    out.push_str(&format!(
        "run: makespan {:.3}s, snapshot at {:.3}s\n\n",
        report.makespan.as_secs_f64(),
        secs(m.at.as_micros()),
    ));
    if !m.counters.is_empty() {
        out.push_str("== counters ==\n");
        for c in &m.counters {
            out.push_str(&format!("  {:<24} {:>12}\n", c.name, c.value));
        }
        out.push('\n');
    }
    if !m.gauges.is_empty() {
        out.push_str("== gauges ==\n");
        for g in &m.gauges {
            out.push_str(&format!("  {:<24} {:>12.3}\n", g.name, g.value));
        }
        out.push('\n');
    }
    if !m.histograms.is_empty() {
        out.push_str("== histograms (µs) ==\n");
        for h in &m.histograms {
            render_histogram(&mut out, h);
            if quantiles {
                render_histogram_quantiles(&mut out, h);
            }
        }
        out.push('\n');
    }
    let groups: Vec<&SeriesSnapshot> = m.series_with_prefix("group.").collect();
    let scans: Vec<&SeriesSnapshot> = m.series_with_prefix("scan.").collect();
    let rest: Vec<&SeriesSnapshot> = m
        .series
        .iter()
        .filter(|s| !s.name.starts_with("group.") && !s.name.starts_with("scan."))
        .collect();
    render_series_block(
        &mut out,
        "group timelines (leader-trailer distance, pages)",
        &groups,
        end_us,
    );
    render_series_block(
        &mut out,
        "scan timelines (slowdown vs fairness cap, 0..1)",
        &scans,
        end_us,
    );
    render_series_block(&mut out, "system series", &rest, end_us);
    out
}

/// Render a [`crate::diff::ReportDiff`] for humans: the headline table always, then
/// only the sections that actually moved.
pub fn render_report_diff(a: &str, b: &str, d: &crate::diff::ReportDiff) -> String {
    let mut out = String::new();
    out.push_str(&format!("== report diff: {a} -> {b} ==\n"));
    out.push_str(&format!(
        "  {:<20} {:>16} {:>16} {:>14} {:>9}\n",
        "metric", "A", "B", "delta", "%"
    ));
    for h in &d.headline {
        out.push_str(&format!(
            "  {:<20} {:>16.2} {:>16.2} {:>+14.2} {:>+8.2}%\n",
            h.name,
            h.a,
            h.b,
            h.delta,
            h.pct()
        ));
    }
    if d.policy_a != d.policy_b {
        let fmt = |p: &Option<String>| p.clone().unwrap_or_else(|| "default".to_string());
        out.push_str(&format!(
            "  policy: {} -> {}\n",
            fmt(&d.policy_a),
            fmt(&d.policy_b)
        ));
    }
    if !d.scans.is_empty() {
        out.push_str(&format!(
            "\n== per-query stretch ({} changed, {} only in A, {} only in B) ==\n",
            d.scans.len() - d.scans_only_a - d.scans_only_b,
            d.scans_only_a,
            d.scans_only_b,
        ));
        for s in &d.scans {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.3}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  {:<8} stream {:<3} #{:<3} {:>8} -> {:>8}  ({:+.3})\n",
                s.name,
                s.stream,
                s.occurrence,
                fmt(s.stretch_a),
                fmt(s.stretch_b),
                s.delta,
            ));
        }
    }
    if !d.groups.is_empty() {
        out.push_str(&format!("\n== group lifetimes ({}) ==\n", d.groups.len()));
        for g in &d.groups {
            let fmt = |l: &Option<crate::diff::GroupLifetime>| match l {
                Some(l) => format!(
                    "[{:.3}s .. {:.3}s, {} pts]",
                    secs(l.first_us),
                    secs(l.last_us),
                    l.points
                ),
                None => "absent".to_string(),
            };
            out.push_str(&format!(
                "  {:<28} {} -> {}\n",
                g.name,
                fmt(&g.a),
                fmt(&g.b)
            ));
        }
    }
    if !d.series.is_empty() {
        out.push_str(&format!("\n== series endpoints ({}) ==\n", d.series.len()));
        for s in &d.series {
            let fmt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.3}"),
                None => "absent".to_string(),
            };
            out.push_str(&format!(
                "  {:<28} last {:>10} -> {:>10}   pts {:>4} -> {:>4}\n",
                s.name,
                fmt(s.last_a),
                fmt(s.last_b),
                s.points_a,
                s.points_b,
            ));
        }
    }
    if !d.slo.is_empty() {
        out.push_str(&format!("\n== SLO verdicts ({}) ==\n", d.slo.len()));
        for s in &d.slo {
            let verdict = |p: Option<bool>| match p {
                Some(true) => "PASS",
                Some(false) => "FAIL",
                None => "absent",
            };
            let obs = |o: Option<f64>| match o {
                Some(x) => format!("{x:.4}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  {:<16} {} -> {}  observed {} -> {}\n",
                s.rule,
                verdict(s.passed_a),
                verdict(s.passed_b),
                obs(s.observed_a),
                obs(s.observed_b),
            ));
        }
    }
    if !d.faults.is_empty() {
        out.push_str(&format!("\n== fault counters ({}) ==\n", d.faults.len()));
        for f in &d.faults {
            out.push_str(&format!(
                "  {:<20} {:>10.0} -> {:>10.0}  ({:+.0})\n",
                f.name, f.a, f.b, f.delta
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare::obs::SeriesPoint;

    fn series(name: &str, pts: &[(u64, f64)]) -> SeriesSnapshot {
        SeriesSnapshot {
            name: name.to_string(),
            points: (pts.iter())
                .map(|&(at_us, value)| SeriesPoint { at_us, value })
                .collect(),
        }
    }

    #[test]
    fn timeline_scales_to_the_peak() {
        let s = series("x", &[(0, 1.0), (500_000, 10.0), (999_999, 5.0)]);
        let t = timeline(&s, 1_000_000, 10);
        assert_eq!(t.len(), 10);
        // Peak lands mid-strip as the densest glyph.
        assert_eq!(t.chars().nth(5), Some('@'));
        // Unsampled columns stay blank.
        assert!(t.contains(' '));
    }

    #[test]
    fn timeline_of_flat_zero_series_is_visible() {
        let s = series("z", &[(0, 0.0), (900_000, 0.0)]);
        let t = timeline(&s, 1_000_000, 10);
        // Zero samples still mark their column (lowest ramp level).
        assert_eq!(t.chars().next(), Some('.'));
    }

    #[test]
    fn quantile_expansion_lists_buckets_with_upper_bounds() {
        use scanshare::obs::Histogram;
        let mut h = Histogram::default();
        for v in [10, 20, 100, 1_000, 5_000] {
            h.record(v);
        }
        let snap = h.snapshot("disk.read_us");
        let mut out = String::new();
        render_histogram_quantiles(&mut out, &snap);
        // Small histograms report exact nearest-rank quantiles from the
        // sample window.
        assert!(out.contains(&format!("p50 {:>9}", 100)), "got: {out}");
        assert!(out.contains(&format!("p99 {:>9}", 5_000)), "got: {out}");
        // Each non-empty power-of-two bucket prints its inclusive upper
        // bound and a visible count bar.
        assert!(out.contains(&format!("le {:>12}", 15)), "got: {out}");
        assert!(out.contains('#'), "got: {out}");
        assert_eq!(out.matches("    le ").count(), snap.buckets.len());
    }

    #[test]
    fn quantile_expansion_of_empty_histogram_reports_no_samples() {
        use scanshare::obs::Histogram;
        // A histogram that never recorded must say n=0, not print
        // misleading p50..p99 zeros or divide by an empty peak.
        let snap = Histogram::default().snapshot("never.recorded_us");
        let mut out = String::new();
        render_histogram_quantiles(&mut out, &snap);
        assert!(out.contains("n=0"), "got: {out}");
        assert!(!out.contains("p50"), "got: {out}");
        assert!(!out.contains("    le "), "got: {out}");
        assert!(!out.contains("NaN"), "got: {out}");
    }

    #[test]
    fn quantile_expansion_of_single_bucket_histogram_is_degenerate_bar() {
        use scanshare::obs::Histogram;
        // All samples in one bucket: every quantile is that value and
        // the single bucket renders a full-width bar.
        let mut h = Histogram::default();
        for _ in 0..4 {
            h.record(100);
        }
        let snap = h.snapshot("constant_us");
        let mut out = String::new();
        render_histogram_quantiles(&mut out, &snap);
        assert!(out.contains(&format!("p50 {:>9}", 100)), "got: {out}");
        assert!(out.contains(&format!("p99 {:>9}", 100)), "got: {out}");
        assert_eq!(out.matches("    le ").count(), 1, "got: {out}");
        assert!(out.contains(&"#".repeat(BUCKET_BAR)), "got: {out}");
    }
}
