//! Declarative service-level objectives evaluated at end of run.
//!
//! A workload spec may carry an `slo` section: a list of rules, each
//! comparing one observable of the finished run against a threshold
//! (`"p99_stretch <= 1.5"`, `"hit_ratio >= 0.6"`, …). Rules are
//! evaluated by [`evaluate`] after the report is assembled, entirely
//! from virtual-time quantities — verdicts are deterministic and
//! byte-stable across hosts and `--jobs` counts.
//!
//! # Metric grammar
//!
//! The `metric` field of a rule is a compact string:
//!
//! | metric | meaning |
//! |---|---|
//! | `hit_ratio` | end-of-run buffer-pool hit ratio in `[0, 1]` |
//! | `pages_per_sec` | logical pages consumed per *virtual* second |
//! | `p99_stretch` (or `stretch_p99`) | quantile of per-query stretch |
//! | `hist:<name>:p99` | quantile of a report histogram (e.g. `hist:disk.read_us:p99`) |
//! | `series:<name>:last` | final sample of a report series |
//! | `series:<name>:max` | largest sample of a report series |
//!
//! *Stretch* is a query's elapsed time divided by the fastest elapsed
//! time among runs of the same-named query in the same report — 1.0 for
//! the fastest instance, 2.0 for one that took twice as long. It is the
//! natural fairness measure for the paper's throttled groups: a leader
//! throttled into a group should stretch a little, a starved trailer
//! stretches a lot.
//!
//! A rule whose metric does not parse, or names a histogram/series the
//! run did not record, fails closed: the verdict is a breach with a
//! `note` explaining what was wrong, so typos cannot silently pass.

use serde::{Deserialize, Serialize};

use crate::metrics::RunReport;

/// The `slo` section of a workload spec: zero or more rules to check.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SloConfig {
    /// The rules, checked in order.
    #[serde(default)]
    pub rules: Vec<SloRule>,
}

impl SloConfig {
    /// True when the section declares no rules (the default), in which
    /// case runs carry no `slo` report section at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// One declarative objective: `metric op value`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloRule {
    /// Rule name, echoed in the verdict (e.g. `"tail latency"`).
    pub name: String,
    /// What to measure — see the module docs for the grammar.
    pub metric: String,
    /// Comparison direction.
    pub op: SloOp,
    /// Threshold the observed value is compared against.
    pub value: f64,
}

/// Comparison direction of a rule. Serialized as `"<="` / `">="`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOp {
    /// Observed must be `<=` the threshold (caps: latency, stretch).
    Le,
    /// Observed must be `>=` the threshold (floors: hit ratio, throughput).
    Ge,
}

impl SloOp {
    /// The comparison as an operator token.
    pub fn symbol(&self) -> &'static str {
        match self {
            SloOp::Le => "<=",
            SloOp::Ge => ">=",
        }
    }

    /// Apply the comparison.
    pub fn holds(&self, observed: f64, threshold: f64) -> bool {
        match self {
            SloOp::Le => observed <= threshold,
            SloOp::Ge => observed >= threshold,
        }
    }
}

impl Serialize for SloOp {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::String(self.symbol().to_string())
    }
}

impl Deserialize for SloOp {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("<=") | Some("le") => Ok(SloOp::Le),
            Some(">=") | Some("ge") => Ok(SloOp::Ge),
            _ => Err(serde::__private::unexpected("\"<=\" or \">=\"", v)),
        }
    }
}

/// The outcome of checking one [`SloRule`] against a finished run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloVerdict {
    /// The rule's name.
    pub rule: String,
    /// The rule's metric string.
    pub metric: String,
    /// Comparison direction.
    pub op: SloOp,
    /// The rule's threshold.
    pub threshold: f64,
    /// What the run actually measured (0.0 when the metric could not be
    /// evaluated — see `note`).
    pub observed: f64,
    /// Whether the objective held.
    pub passed: bool,
    /// Empty when the metric evaluated cleanly; otherwise why it could
    /// not be (unknown metric, missing histogram/series, no queries).
    #[serde(default)]
    pub note: String,
}

/// Evaluate every rule of `cfg` against `report`, in order.
pub fn evaluate(cfg: &SloConfig, report: &RunReport) -> Vec<SloVerdict> {
    cfg.rules
        .iter()
        .map(|rule| {
            let (observed, note) = match measure(&rule.metric, report) {
                Ok(v) => (v, String::new()),
                Err(e) => (0.0, e),
            };
            let passed = note.is_empty() && rule.op.holds(observed, rule.value);
            SloVerdict {
                rule: rule.name.clone(),
                metric: rule.metric.clone(),
                op: rule.op,
                threshold: rule.value,
                observed,
                passed,
                note,
            }
        })
        .collect()
}

/// Evaluate one metric string against the report.
fn measure(metric: &str, report: &RunReport) -> Result<f64, String> {
    if metric == "hit_ratio" {
        return Ok(report.pool.hit_ratio());
    }
    if metric == "pages_per_sec" {
        let secs = report.makespan.as_micros() as f64 / 1e6;
        if secs == 0.0 {
            return Err("makespan is zero".to_string());
        }
        return Ok(report.pool.logical_reads as f64 / secs);
    }
    if let Some(q) = parse_stretch(metric) {
        return stretch_quantile(report, q);
    }
    if let Some(rest) = metric.strip_prefix("hist:") {
        let (name, spec) = rest
            .rsplit_once(':')
            .ok_or_else(|| format!("malformed histogram metric `{metric}`"))?;
        let q = parse_quantile(spec)
            .ok_or_else(|| format!("malformed quantile `{spec}` in `{metric}`"))?;
        let h = report
            .metrics
            .histogram(name)
            .ok_or_else(|| format!("histogram `{name}` not recorded by this run"))?;
        return Ok(h.quantile(q) as f64);
    }
    if let Some(rest) = metric.strip_prefix("series:") {
        let (name, agg) = rest
            .rsplit_once(':')
            .ok_or_else(|| format!("malformed series metric `{metric}`"))?;
        let s = report
            .metrics
            .series(name)
            .ok_or_else(|| format!("series `{name}` not recorded by this run"))?;
        if s.points.is_empty() {
            return Err(format!("series `{name}` is empty"));
        }
        return match agg {
            "last" => Ok(s.points[s.points.len() - 1].value),
            "max" => Ok(s.values().fold(f64::NEG_INFINITY, f64::max)),
            _ => Err(format!("unknown series aggregate `{agg}` in `{metric}`")),
        };
    }
    Err(format!("unknown metric `{metric}`"))
}

/// `p99_stretch` / `stretch_p99` → `0.99`.
fn parse_stretch(metric: &str) -> Option<f64> {
    if let Some(q) = metric.strip_suffix("_stretch") {
        return parse_quantile(q);
    }
    if let Some(q) = metric.strip_prefix("stretch_") {
        return parse_quantile(q);
    }
    None
}

/// `p50`/`p99` → quantile in `[0, 1]`.
fn parse_quantile(spec: &str) -> Option<f64> {
    let pct: u32 = spec.strip_prefix('p')?.parse().ok()?;
    if pct > 100 {
        return None;
    }
    Some(pct as f64 / 100.0)
}

/// Nearest-rank quantile of per-query stretch (elapsed over the minimum
/// elapsed among same-name queries).
fn stretch_quantile(report: &RunReport, q: f64) -> Result<f64, String> {
    if report.queries.is_empty() {
        return Err("run executed no queries".to_string());
    }
    let mut stretches: Vec<f64> = Vec::with_capacity(report.queries.len());
    for name in report.query_names() {
        let times: Vec<u64> = report
            .queries
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.elapsed().as_micros())
            .collect();
        let fastest = *times.iter().min().expect("name came from queries");
        for t in times {
            if fastest == 0 {
                stretches.push(1.0);
            } else {
                stretches.push(t as f64 / fastest as f64);
            }
        }
    }
    stretches.sort_by(|a, b| a.partial_cmp(b).expect("stretches are finite"));
    let rank = ((q.clamp(0.0, 1.0) * stretches.len() as f64).ceil() as usize).max(1);
    Ok(stretches[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Breakdown, QueryRecord};
    use crate::query::QueryResult;
    use scanshare_storage::{SimDuration, SimTime};

    fn query(name: &str, start_us: u64, end_us: u64) -> QueryRecord {
        QueryRecord {
            name: name.to_string(),
            stream: 0,
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
            cpu: SimDuration::ZERO,
            io_wait: SimDuration::ZERO,
            throttle_wait: SimDuration::ZERO,
            logical_reads: 0,
            physical_reads: 0,
            result: QueryResult::default(),
        }
    }

    fn report() -> RunReport {
        let pool = scanshare_storage::PoolStats {
            logical_reads: 1000,
            hits: 750,
            misses: 250,
            ..Default::default()
        };
        RunReport {
            makespan: SimDuration::from_secs(2),
            stream_elapsed: vec![],
            queries: vec![
                query("Q6", 0, 100_000),
                query("Q6", 0, 150_000),
                query("Q6", 0, 200_000),
                query("Q1", 0, 50_000),
            ],
            breakdown: Breakdown::default(),
            disk: Default::default(),
            read_series: Default::default(),
            seek_series: Default::default(),
            seek_distance_series: Default::default(),
            pool,
            sharing: Default::default(),
            metrics: Default::default(),
            decisions: vec![],
            faults: Default::default(),
            policy: None,
            profile: None,
            slo: vec![],
            push: None,
        }
    }

    fn rule(metric: &str, op: SloOp, value: f64) -> SloRule {
        SloRule {
            name: metric.to_string(),
            metric: metric.to_string(),
            op,
            value,
        }
    }

    #[test]
    fn hit_ratio_and_throughput_metrics() {
        let r = report();
        assert_eq!(measure("hit_ratio", &r).unwrap(), 0.75);
        assert_eq!(measure("pages_per_sec", &r).unwrap(), 500.0);
    }

    #[test]
    fn stretch_is_relative_to_the_fastest_same_name_query() {
        let r = report();
        // Q6 stretches: 1.0, 1.5, 2.0; Q1: 1.0. Sorted: 1.0 1.0 1.5 2.0.
        assert_eq!(measure("p99_stretch", &r).unwrap(), 2.0);
        assert_eq!(measure("stretch_p50", &r).unwrap(), 1.0);
        assert_eq!(measure("p75_stretch", &r).unwrap(), 1.5);
    }

    #[test]
    fn verdicts_respect_the_operator() {
        let cfg = SloConfig {
            rules: vec![
                rule("hit_ratio", SloOp::Ge, 0.6),
                rule("p99_stretch", SloOp::Le, 1.5),
            ],
        };
        let v = evaluate(&cfg, &report());
        assert!(v[0].passed, "0.75 >= 0.6");
        assert!(!v[1].passed, "2.0 > 1.5");
        assert_eq!(v[1].observed, 2.0);
        assert!(v[1].note.is_empty());
    }

    #[test]
    fn unknown_metrics_fail_closed_with_a_note() {
        let cfg = SloConfig {
            rules: vec![
                rule("hti_ratio", SloOp::Ge, 0.0),
                rule("hist:no.such:p99", SloOp::Le, 1e9),
                rule("series:no.such:last", SloOp::Le, 1e9),
            ],
        };
        let v = evaluate(&cfg, &report());
        for verdict in &v {
            assert!(!verdict.passed, "{verdict:?}");
            assert!(!verdict.note.is_empty(), "{verdict:?}");
        }
        assert!(v[0].note.contains("unknown metric"));
        assert!(v[1].note.contains("not recorded"));
    }

    #[test]
    fn rules_round_trip_through_json() {
        let cfg = SloConfig {
            rules: vec![rule("hit_ratio", SloOp::Ge, 0.6)],
        };
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("\">=\""), "{json}");
        let back: SloConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        // Lowercase aliases parse too.
        let lax: SloOp = serde_json::from_str("\"le\"").unwrap();
        assert_eq!(lax, SloOp::Le);
    }

    #[test]
    fn empty_config_is_default_and_empty() {
        assert!(SloConfig::default().is_empty());
        let cfg: SloConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(cfg, SloConfig::default());
    }
}
