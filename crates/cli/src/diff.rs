//! Structural diff of two saved [`RunReport`] artifacts.
//!
//! `scanshare diff A.json B.json` answers "what actually changed between
//! these two runs?" without eyeballing JSON: headline counter deltas,
//! per-query stretch movement, group lifetimes appearing/disappearing/
//! shifting, sampled-series endpoints, SLO verdict flips, fault-summary
//! deltas, and the policy pair. The diff itself is computed here as
//! plain data ([`ReportDiff`]) so `--json` can emit it verbatim and the
//! human view in [`crate::render`] stays a pure formatter.
//!
//! Matching rules: queries are matched by `(stream, name, occurrence)`
//! where occurrence counts same-name executions within a stream in
//! start order — stable across two runs of the same workload even when
//! completion order shuffles. Series and groups are matched by name.
//! Stretch is each query's elapsed time divided by the fastest
//! same-name execution *in its own report*, i.e. the same definition
//! the SLO layer gates on.

use scanshare_engine::RunReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A named before/after pair with its absolute delta.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Delta {
    /// What is being compared (e.g. `makespan_us`).
    pub name: String,
    /// Value in report A.
    pub a: f64,
    /// Value in report B.
    pub b: f64,
    /// `b - a`.
    pub delta: f64,
}

impl Delta {
    fn new(name: &str, a: f64, b: f64) -> Self {
        Delta {
            name: name.to_string(),
            a,
            b,
            delta: b - a,
        }
    }

    /// Percent change relative to A (0.0 when A is 0).
    pub fn pct(&self) -> f64 {
        if self.a.abs() > 1e-12 {
            self.delta / self.a * 100.0
        } else {
            0.0
        }
    }
}

/// Stretch movement of one matched query execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanStretchDelta {
    /// Query name (e.g. `Q6`).
    pub name: String,
    /// Stream the execution ran on.
    pub stream: usize,
    /// 0-based occurrence of this name within the stream (start order).
    pub occurrence: usize,
    /// Stretch in report A (`None` when only B ran this execution).
    pub stretch_a: Option<f64>,
    /// Stretch in report B (`None` when only A ran it).
    pub stretch_b: Option<f64>,
    /// `b - a` when both sides matched, else 0.
    pub delta: f64,
}

/// Lifetime of one `group.*` series: when the group first and last
/// reported a sample, and how many samples it logged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupLifetime {
    /// First sample time, µs.
    pub first_us: u64,
    /// Last sample time, µs.
    pub last_us: u64,
    /// Sample count.
    pub points: usize,
}

/// Before/after lifetimes of one sharing group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupDelta {
    /// Series name (`group.N.distance_pages`).
    pub name: String,
    /// Lifetime in A (`None` = the group only formed in B).
    pub a: Option<GroupLifetime>,
    /// Lifetime in B (`None` = the group only formed in A).
    pub b: Option<GroupLifetime>,
}

/// Endpoint comparison of one sampled series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesDelta {
    /// Series name.
    pub name: String,
    /// Last sampled value in A (`None` = series absent in A).
    pub last_a: Option<f64>,
    /// Last sampled value in B (`None` = series absent in B).
    pub last_b: Option<f64>,
    /// Sample count in A.
    pub points_a: usize,
    /// Sample count in B.
    pub points_b: usize,
}

impl SeriesDelta {
    /// Whether the series moved: appeared, vanished, changed its
    /// endpoint value, or changed its sample count.
    pub fn changed(&self) -> bool {
        self.last_a != self.last_b || self.points_a != self.points_b
    }
}

/// One SLO rule whose verdict or observation moved between the runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloChange {
    /// Rule name.
    pub rule: String,
    /// Passed in A (`None` = rule absent in A).
    pub passed_a: Option<bool>,
    /// Passed in B (`None` = rule absent in B).
    pub passed_b: Option<bool>,
    /// Observed value in A.
    pub observed_a: Option<f64>,
    /// Observed value in B.
    pub observed_b: Option<f64>,
}

/// The full structural diff of two reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportDiff {
    /// Headline counters: makespan, reads, seeks, hit ratio, …
    pub headline: Vec<Delta>,
    /// Per-execution stretch movement (only entries that moved or were
    /// unmatched; empty when every execution matched with equal stretch).
    pub scans: Vec<ScanStretchDelta>,
    /// Executions present in exactly one report.
    pub scans_only_a: usize,
    /// Executions present only in B.
    pub scans_only_b: usize,
    /// Group lifetimes that appeared, vanished, or shifted.
    pub groups: Vec<GroupDelta>,
    /// Series whose endpoint or sample count moved.
    pub series: Vec<SeriesDelta>,
    /// SLO verdicts that flipped, appeared, or vanished.
    pub slo: Vec<SloChange>,
    /// Fault-summary counter deltas (only nonzero rows).
    pub faults: Vec<Delta>,
    /// Policy of report A (`None` = base/default grouping).
    pub policy_a: Option<String>,
    /// Policy of report B.
    pub policy_b: Option<String>,
}

impl ReportDiff {
    /// Whether the two reports are structurally identical under this
    /// diff: every headline delta zero, every execution matched with
    /// equal stretch, no group/series/SLO/fault movement, same policy.
    pub fn is_zero(&self) -> bool {
        self.headline.iter().all(|d| d.delta == 0.0)
            && self.scans.is_empty()
            && self.scans_only_a == 0
            && self.scans_only_b == 0
            && self.groups.is_empty()
            && self.series.is_empty()
            && self.slo.is_empty()
            && self.faults.is_empty()
            && self.policy_a == self.policy_b
    }

    /// One-line verdict for scripts and commit messages.
    pub fn summary_line(&self) -> String {
        if self.is_zero() {
            return "reports identical: no headline, stretch, group, series, \
                    SLO, fault, or policy differences"
                .to_string();
        }
        let moved = self.headline.iter().filter(|d| d.delta != 0.0).count();
        let makespan = self
            .headline
            .iter()
            .find(|d| d.name == "makespan_us")
            .map(|d| format!("makespan {:+.2}%", d.pct()))
            .unwrap_or_default();
        format!(
            "reports differ: {makespan}, {moved} headline metric(s), \
             {} stretch, {} group, {} series, {} SLO, {} fault change(s)",
            self.scans.len() + self.scans_only_a + self.scans_only_b,
            self.groups.len(),
            self.series.len(),
            self.slo.len(),
            self.faults.len(),
        )
    }
}

/// Per-execution stretch, keyed `(stream, name, occurrence)`.
///
/// Occurrence indexes same-name executions within a stream in start
/// order; stretch divides by the fastest same-name execution anywhere
/// in the report (the SLO layer's definition).
fn stretches(r: &RunReport) -> BTreeMap<(usize, String, usize), f64> {
    let mut fastest: BTreeMap<&str, f64> = BTreeMap::new();
    for q in &r.queries {
        let e = q.elapsed().as_secs_f64();
        fastest
            .entry(q.name.as_str())
            .and_modify(|f| *f = f.min(e))
            .or_insert(e);
    }
    // Start-ordered occurrence counting, independent of completion order.
    let mut ordered: Vec<&scanshare_engine::QueryRecord> = r.queries.iter().collect();
    ordered.sort_by_key(|q| (q.stream, q.start.as_micros()));
    let mut occ: BTreeMap<(usize, &str), usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for q in ordered {
        let slot = occ.entry((q.stream, q.name.as_str())).or_insert(0);
        let i = *slot;
        *slot += 1;
        let f = fastest[q.name.as_str()];
        let stretch = if f > 0.0 {
            q.elapsed().as_secs_f64() / f
        } else {
            1.0
        };
        out.insert((q.stream, q.name.clone(), i), stretch);
    }
    out
}

fn lifetime(s: &scanshare::obs::SeriesSnapshot) -> GroupLifetime {
    GroupLifetime {
        first_us: s.points.first().map(|p| p.at_us).unwrap_or(0),
        last_us: s.points.last().map(|p| p.at_us).unwrap_or(0),
        points: s.points.len(),
    }
}

/// Compute the structural diff of two reports (A = "before", B = "after").
pub fn compute_diff(a: &RunReport, b: &RunReport) -> ReportDiff {
    let headline = vec![
        Delta::new(
            "makespan_us",
            a.makespan.as_micros() as f64,
            b.makespan.as_micros() as f64,
        ),
        Delta::new(
            "pages_read",
            a.disk.pages_read as f64,
            b.disk.pages_read as f64,
        ),
        Delta::new("seeks", a.disk.seeks as f64, b.disk.seeks as f64),
        Delta::new(
            "seek_distance_pages",
            a.disk.seek_distance_pages as f64,
            b.disk.seek_distance_pages as f64,
        ),
        Delta::new(
            "logical_reads",
            a.pool.logical_reads as f64,
            b.pool.logical_reads as f64,
        ),
        Delta::new(
            "hit_ratio_pct",
            a.pool.hit_ratio() * 100.0,
            b.pool.hit_ratio() * 100.0,
        ),
        Delta::new(
            "evictions",
            a.pool.evictions as f64,
            b.pool.evictions as f64,
        ),
        Delta::new("queries", a.queries.len() as f64, b.queries.len() as f64),
    ];

    // Per-execution stretch movement.
    let sa = stretches(a);
    let sb = stretches(b);
    let mut scans = Vec::new();
    let (mut only_a, mut only_b) = (0usize, 0usize);
    for (key, &va) in &sa {
        match sb.get(key) {
            Some(&vb) => {
                if (vb - va).abs() > 1e-9 {
                    scans.push(ScanStretchDelta {
                        name: key.1.clone(),
                        stream: key.0,
                        occurrence: key.2,
                        stretch_a: Some(va),
                        stretch_b: Some(vb),
                        delta: vb - va,
                    });
                }
            }
            None => {
                only_a += 1;
                scans.push(ScanStretchDelta {
                    name: key.1.clone(),
                    stream: key.0,
                    occurrence: key.2,
                    stretch_a: Some(va),
                    stretch_b: None,
                    delta: 0.0,
                });
            }
        }
    }
    for (key, &vb) in &sb {
        if !sa.contains_key(key) {
            only_b += 1;
            scans.push(ScanStretchDelta {
                name: key.1.clone(),
                stream: key.0,
                occurrence: key.2,
                stretch_a: None,
                stretch_b: Some(vb),
                delta: 0.0,
            });
        }
    }

    // Group lifetimes (the `group.*` series) and general series
    // endpoints, both matched by name.
    let series_map = |r: &RunReport| -> BTreeMap<String, (Option<f64>, usize, GroupLifetime)> {
        r.metrics
            .series
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    (
                        s.points.last().map(|p| p.value),
                        s.points.len(),
                        lifetime(s),
                    ),
                )
            })
            .collect()
    };
    let ma = series_map(a);
    let mb = series_map(b);
    let mut groups = Vec::new();
    let mut series = Vec::new();
    let mut names: Vec<&String> = ma.keys().chain(mb.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let ea = ma.get(name);
        let eb = mb.get(name);
        if name.starts_with("group.") {
            let la = ea.map(|e| e.2.clone());
            let lb = eb.map(|e| e.2.clone());
            if la != lb {
                groups.push(GroupDelta {
                    name: name.clone(),
                    a: la,
                    b: lb,
                });
            }
        }
        let d = SeriesDelta {
            name: name.clone(),
            last_a: ea.and_then(|e| e.0),
            last_b: eb.and_then(|e| e.0),
            points_a: ea.map(|e| e.1).unwrap_or(0),
            points_b: eb.map(|e| e.1).unwrap_or(0),
        };
        if d.changed() {
            series.push(d);
        }
    }

    // SLO verdicts, matched by rule name.
    let mut slo = Vec::new();
    let find = |r: &RunReport, rule: &str| {
        r.slo
            .iter()
            .find(|v| v.rule == rule)
            .map(|v| (v.passed, v.observed))
    };
    let mut rules: Vec<&String> = a
        .slo
        .iter()
        .map(|v| &v.rule)
        .chain(b.slo.iter().map(|v| &v.rule))
        .collect();
    rules.sort();
    rules.dedup();
    for rule in rules {
        let va = find(a, rule);
        let vb = find(b, rule);
        let flipped = match (va, vb) {
            (Some((pa, oa)), Some((pb, ob))) => pa != pb || (oa - ob).abs() > 1e-9,
            _ => true,
        };
        if flipped {
            slo.push(SloChange {
                rule: rule.clone(),
                passed_a: va.map(|v| v.0),
                passed_b: vb.map(|v| v.0),
                observed_a: va.map(|v| v.1),
                observed_b: vb.map(|v| v.1),
            });
        }
    }

    // Fault counters: only rows that moved.
    let fault_rows = |r: &RunReport| {
        [
            ("transient_errors", r.faults.transient_errors as f64),
            ("permanent_errors", r.faults.permanent_errors as f64),
            ("delays_injected", r.faults.delays_injected as f64),
            ("retries", r.faults.retries as f64),
            ("timeouts", r.faults.timeouts as f64),
            ("scans_aborted", r.faults.scans_aborted as f64),
        ]
    };
    let faults = fault_rows(a)
        .iter()
        .zip(fault_rows(b).iter())
        .filter(|((_, va), (_, vb))| va != vb)
        .map(|((name, va), (_, vb))| Delta::new(name, *va, *vb))
        .collect();

    ReportDiff {
        headline,
        scans,
        scans_only_a: only_a,
        scans_only_b: only_b,
        groups,
        series,
        slo,
        faults,
        policy_a: a.policy.map(|p| p.policy_name().to_string()),
        policy_b: b.policy.map(|p| p.policy_name().to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare::SharingConfig;
    use scanshare_engine::{run_workload, SharingMode};
    use scanshare_tpch::{generate, throughput_workload, TpchConfig};

    fn smoke(mode: SharingMode) -> RunReport {
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        let w = throughput_workload(&db, 2, tpch.months as i64, tpch.seed, mode);
        run_workload(&db, &w).expect("smoke run")
    }

    #[test]
    fn self_diff_is_zero() {
        let r = smoke(SharingMode::ScanSharing(SharingConfig::new(0)));
        let d = compute_diff(&r, &r);
        assert!(d.is_zero(), "self-diff not zero: {d:?}");
        assert!(d.summary_line().contains("identical"));
        // Every headline row still reports both sides.
        assert!(d.headline.iter().any(|h| h.name == "makespan_us"));
        assert!(d.headline.iter().all(|h| h.a == h.b && h.delta == 0.0));
    }

    #[test]
    fn base_vs_sharing_diff_reports_movement() {
        let base = smoke(SharingMode::Base);
        let ss = smoke(SharingMode::ScanSharing(SharingConfig::new(0)));
        let d = compute_diff(&base, &ss);
        assert!(!d.is_zero());
        // Sharing reads strictly fewer pages on this workload.
        let pages = d.headline.iter().find(|h| h.name == "pages_read").unwrap();
        assert!(pages.delta < 0.0, "expected fewer pages, got {pages:?}");
        // Sharing runs emit group./scan. series that base lacks.
        assert!(d.series.iter().any(|s| s.name.starts_with("group.")));
        assert!(!d.groups.is_empty());
        assert!(d.summary_line().contains("reports differ"));
        // Executions match one-to-one: same workload on both sides.
        assert_eq!(d.scans_only_a, 0);
        assert_eq!(d.scans_only_b, 0);
    }

    #[test]
    fn diff_round_trips_through_json() {
        let base = smoke(SharingMode::Base);
        let ss = smoke(SharingMode::ScanSharing(SharingConfig::new(0)));
        let d = compute_diff(&base, &ss);
        let json = serde_json::to_string(&d).unwrap();
        let back: ReportDiff = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
