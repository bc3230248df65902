//! `scanshare history` — render a run-history ledger as trend tables.
//!
//! The ledger (`results/history.jsonl`, written by `bench_gate
//! --history` and the `exp` runner) accumulates one JSON line per
//! run. This module turns a ledger into a per-metric trend view: one
//! row per recorded metric with a unicode sparkline over the selected
//! entries (oldest → newest), first/last values, and the net change.
//! The wall section joins the table as pseudo-metrics
//! (`wall_ms.median`, `pages_per_wall_sec.median`) so host-speed drift
//! is visible next to the exact virtual metrics.
//!
//! `--check` additionally validates the ledger line-by-line and runs
//! the trailing-window change-point check from
//! [`scanshare_bench::stats`] on the wall medians: the newest entry is
//! tested against the pooled bootstrap CI of the window before it.
//! The verdict is informational (exit 0) unless `--strict` promotes a
//! flagged trend to exit 1 — mirroring `bench_gate --trend-gate`.

use scanshare_bench::history::HistoryEntry;
use scanshare_bench::stats;

/// Sparkline ramp, lowest to highest.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Options parsed from `scanshare history ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryOptions {
    /// Ledger path (`--ledger`, default `results/history.jsonl`).
    pub ledger: String,
    /// Restrict the table to one metric (`--metric NAME`).
    pub metric: Option<String>,
    /// Show only the last K entries (`--last K`, 0 = all).
    pub last: usize,
    /// Emit the trend data as JSON instead of the table.
    pub json: bool,
    /// Validate the ledger and run the wall-time change-point check.
    pub check: bool,
    /// With `--check`: exit 1 when the check flags the newest entry.
    pub strict: bool,
    /// Trailing-window length for the check (`--window K`).
    pub window: usize,
}

impl Default for HistoryOptions {
    fn default() -> Self {
        HistoryOptions {
            ledger: "results/history.jsonl".to_string(),
            metric: None,
            last: 0,
            json: false,
            check: false,
            strict: false,
            window: stats::DEFAULT_WINDOW,
        }
    }
}

/// Draw `values` as a fixed-length sparkline scaled min..max. A
/// constant (or single-point) series renders at mid-height so it stays
/// visible without suggesting movement.
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                SPARK[3]
            } else {
                let level = ((v - lo) / span * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[level.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

/// One metric's trajectory over the selected entries. `values[i]` is
/// `None` when entry `i` did not record the metric (rendered as a gap).
#[derive(Debug, Clone, PartialEq)]
pub struct Trend {
    /// Metric name.
    pub name: String,
    /// Per-entry values, oldest first.
    pub values: Vec<Option<f64>>,
}

impl Trend {
    /// The recorded values only, in order.
    pub fn present(&self) -> Vec<f64> {
        self.values.iter().filter_map(|v| *v).collect()
    }
}

/// Series key for a metric recorded by `entry`: entries tagged with a
/// non-default delivery mode trend under `<delivery>:<metric>` so push
/// runs never splice into the pull trajectory of the same metric.
fn series_key(entry: &HistoryEntry, metric: &str) -> String {
    match entry.delivery.as_deref() {
        Some(d) if d != "pull" => format!("{d}:{metric}"),
        _ => metric.to_string(),
    }
}

/// Collect every metric trajectory over `entries`, in first-seen order:
/// virtual metrics first (as recorded, namespaced per delivery mode),
/// then the wall pseudo-metrics.
pub fn trends(entries: &[HistoryEntry]) -> Vec<Trend> {
    let mut order: Vec<String> = Vec::new();
    for e in entries {
        for m in &e.metrics {
            let key = series_key(e, &m.name);
            if !order.contains(&key) {
                order.push(key);
            }
        }
    }
    if entries.iter().any(|e| e.wall.is_some()) {
        order.push("wall_ms.median".to_string());
        order.push("pages_per_wall_sec.median".to_string());
    }
    order
        .into_iter()
        .map(|name| Trend {
            values: entries
                .iter()
                .map(|e| match name.as_str() {
                    "wall_ms.median" => e.wall.as_ref().map(|w| w.wall_ms.median),
                    "pages_per_wall_sec.median" => {
                        e.wall.as_ref().map(|w| w.pages_per_wall_sec.median)
                    }
                    _ => e
                        .metrics
                        .iter()
                        .find(|m| series_key(e, &m.name) == name)
                        .map(|m| m.value),
                })
                .collect(),
            name,
        })
        .collect()
}

/// Render the human trend view: an entry header (index, SHA, date,
/// source, config) followed by the per-metric table.
pub fn render_history(entries: &[HistoryEntry], metric: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str(&format!("== ledger entries ({}) ==\n", entries.len()));
    for (i, e) in entries.iter().enumerate() {
        let mut cfg = Vec::new();
        if let Some(p) = &e.policy {
            cfg.push(format!("policy {p}"));
        }
        if let Some(f) = &e.faults {
            cfg.push(format!("faults {f}"));
        }
        if let Some(d) = &e.delivery {
            cfg.push(format!("delivery {d}"));
        }
        if let Some(w) = &e.wall {
            cfg.push(format!("reps {} jobs {}", w.reps, w.jobs));
        }
        out.push_str(&format!(
            "  [{i:>2}] {:<12} {:<20} {:<10} {}\n",
            e.git_sha,
            e.recorded_at,
            e.source,
            cfg.join(", "),
        ));
    }
    out.push('\n');
    let all = trends(entries);
    let selected: Vec<&Trend> = all
        .iter()
        .filter(|t| metric.is_none_or(|m| t.name == m))
        .collect();
    out.push_str(&format!("== metric trends ({}) ==\n", selected.len()));
    let name_w = selected
        .iter()
        .map(|t| t.name.len())
        .max()
        .unwrap_or(0)
        .max(6);
    for t in &selected {
        let present = t.present();
        let (first, last) = match (present.first(), present.last()) {
            (Some(f), Some(l)) => (*f, *l),
            _ => {
                out.push_str(&format!("  {:<name_w$}  (no samples)\n", t.name));
                continue;
            }
        };
        let delta_pct = if first.abs() > 1e-12 {
            (last - first) / first * 100.0
        } else {
            0.0
        };
        // Gaps (entries missing the metric) render as spaces inside the
        // sparkline so columns stay aligned with the entry header.
        let line: String = t
            .values
            .iter()
            .map(|v| match v {
                None => ' ',
                Some(_) => '\0', // placeholder, replaced below
            })
            .collect();
        let spark = sparkline(&present);
        let mut spark_chars = spark.chars();
        let merged: String = line
            .chars()
            .map(|c| {
                if c == '\0' {
                    spark_chars.next().unwrap_or(' ')
                } else {
                    c
                }
            })
            .collect();
        out.push_str(&format!(
            "  {:<name_w$}  {merged}  first {:>14.2}  last {:>14.2}  Δ {:>+7.2}%\n",
            t.name, first, last, delta_pct,
        ));
    }
    out
}

/// Build the `--json` payload: entries + per-metric trajectories.
pub fn history_json(entries: &[HistoryEntry], metric: Option<&str>) -> serde_json::Value {
    use serde::Serialize as _;
    let mut metrics = Vec::new();
    for t in trends(entries) {
        if metric.is_some_and(|m| t.name != m) {
            continue;
        }
        let mut obj = serde_json::Map::new();
        obj.insert("name", serde_json::Value::String(t.name.clone()));
        obj.insert(
            "values",
            serde_json::Value::Array(
                t.values
                    .iter()
                    .map(|v| match v {
                        None => serde_json::Value::Null,
                        Some(x) => serde_json::Value::Number(serde_json::Number::F64(*x)),
                    })
                    .collect(),
            ),
        );
        metrics.push(serde_json::Value::Object(obj));
    }
    let mut root = serde_json::Map::new();
    root.insert(
        "entries",
        serde_json::Value::Array(entries.iter().map(|e| e.to_json_value()).collect()),
    );
    root.insert("trends", serde_json::Value::Array(metrics));
    serde_json::Value::Object(root)
}

/// Execute `scanshare history`. Returns the process exit code: 2 for an
/// unreadable/malformed ledger or unknown `--metric`, 1 when `--check
/// --strict` flags the newest entry, 0 otherwise.
pub fn run_history(opts: &HistoryOptions) -> i32 {
    let entries = match scanshare_bench::history::load(&opts.ledger) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if entries.is_empty() {
        eprintln!("ledger {} has no entries", opts.ledger);
        return 2;
    }
    let shown: &[HistoryEntry] = if opts.last > 0 && opts.last < entries.len() {
        &entries[entries.len() - opts.last..]
    } else {
        &entries
    };
    if let Some(m) = &opts.metric {
        let known = trends(shown).iter().any(|t| &t.name == m);
        if !known {
            eprintln!(
                "metric '{m}' not recorded in {} (try one of: {})",
                opts.ledger,
                trends(shown)
                    .iter()
                    .map(|t| t.name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return 2;
        }
    }
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&history_json(shown, opts.metric.as_deref()))
                .expect("trend json serializes")
        );
    } else {
        print!("{}", render_history(shown, opts.metric.as_deref()));
    }
    if !opts.check {
        return 0;
    }
    // Change-point check: newest entry's wall median vs the pooled CI
    // of the window preceding it (whole ledger, not just --last).
    let wall: Vec<f64> = entries
        .iter()
        .filter_map(|e| e.wall.as_ref().map(|w| w.wall_ms.median))
        .collect();
    let Some((&observed, prior)) = wall.split_last() else {
        eprintln!("check: no wall sections in ledger — nothing to check");
        return 0;
    };
    match stats::change_point(prior, observed, opts.window, stats::DEFAULT_SEED) {
        None => {
            eprintln!(
                "check: ledger valid; trend skipped ({} prior wall sample(s), need {})",
                prior.len(),
                stats::MIN_WINDOW
            );
            0
        }
        Some(cp) => {
            let verdict = if cp.flagged { "FLAGGED" } else { "ok" };
            eprintln!(
                "check: ledger valid; wall median {:.1} ms vs pooled 95% CI \
                 [{:.1}, {:.1}] over last {} entries — {verdict}",
                cp.observed, cp.pooled.lo, cp.pooled.hi, cp.window,
            );
            if cp.flagged && opts.strict {
                1
            } else {
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_bench::history::{MetricSample, WallStats};
    use scanshare_bench::stats::ReplicateStats;

    fn entry(sha: &str, makespan: f64, wall: f64) -> HistoryEntry {
        HistoryEntry {
            git_sha: sha.to_string(),
            recorded_at: "2026-08-09T12:00:00Z".to_string(),
            source: "bench_gate".to_string(),
            policy: None,
            faults: None,
            delivery: None,
            metrics: vec![MetricSample {
                name: "ss_makespan_us".into(),
                value: makespan,
            }],
            wall: Some(WallStats {
                reps: 3,
                jobs: 1,
                wall_ms: ReplicateStats::from_samples(&[wall, wall * 1.01, wall * 0.99]),
                pages_per_wall_sec: ReplicateStats::from_samples(&[1e6]),
            }),
        }
    }

    #[test]
    fn sparkline_scales_and_handles_constants() {
        let s = sparkline(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        // Constant series: mid-height everywhere, never divide-by-zero.
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▄▄▄");
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[9.0]), "▄");
    }

    #[test]
    fn trends_cover_metrics_and_wall_pseudometrics() {
        let entries = vec![entry("a", 100.0, 10.0), entry("b", 110.0, 11.0)];
        let ts = trends(&entries);
        let names: Vec<&str> = ts.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ss_makespan_us",
                "wall_ms.median",
                "pages_per_wall_sec.median"
            ]
        );
        assert_eq!(ts[0].values, vec![Some(100.0), Some(110.0)]);
    }

    #[test]
    fn push_entries_trend_as_their_own_series() {
        // A ledger holding both delivery modes must trend them apart:
        // push entries namespace their metrics as push:<name> and leave
        // gaps in the pull series (and vice versa).
        let mut push = entry("pppp", 90.0, 9.0);
        push.delivery = Some("push".to_string());
        let entries = vec![entry("a", 100.0, 10.0), push, entry("b", 110.0, 11.0)];
        let ts = trends(&entries);
        let names: Vec<&str> = ts.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ss_makespan_us",
                "push:ss_makespan_us",
                "wall_ms.median",
                "pages_per_wall_sec.median"
            ]
        );
        assert_eq!(ts[0].values, vec![Some(100.0), None, Some(110.0)]);
        assert_eq!(ts[1].values, vec![None, Some(90.0), None]);
        // The header names the delivery mode next to the tagged entry.
        let text = render_history(&entries, None);
        assert!(text.contains("delivery push"), "got: {text}");
        // An explicit pull tag is the default series, not a namespace.
        let mut pull = entry("qqqq", 95.0, 9.5);
        pull.delivery = Some("pull".to_string());
        let ts = trends(&[pull]);
        assert_eq!(ts[0].name, "ss_makespan_us");
    }

    #[test]
    fn render_lists_entries_and_deltas() {
        let entries = vec![entry("aaaa", 100.0, 10.0), entry("bbbb", 150.0, 10.0)];
        let text = render_history(&entries, None);
        assert!(text.contains("ledger entries (2)"), "got: {text}");
        assert!(text.contains("aaaa"), "got: {text}");
        assert!(text.contains("ss_makespan_us"), "got: {text}");
        assert!(text.contains("+50.00%"), "got: {text}");
        // Metric filter narrows the table without touching the header.
        let one = render_history(&entries, Some("ss_makespan_us"));
        assert!(one.contains("metric trends (1)"), "got: {one}");
        assert!(!one.contains("wall_ms.median"), "got: {one}");
    }
}
