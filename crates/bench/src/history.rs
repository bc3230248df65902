//! Append-only run-history ledger (`results/history.jsonl`).
//!
//! Every perf number this repo produced before this module was a
//! single-shot snapshot: `bench_gate` diffs one run against one
//! committed baseline and the wall section holds one unreplicated
//! measurement. The ledger turns those snapshots into a trajectory —
//! one JSON line per run, carrying provenance (git SHA, timestamp,
//! producing binary), the run's configuration (jobs, policy, fault
//! plan), the bit-identical virtual-clock metrics, and a replicated
//! wall section summarized by [`crate::stats::ReplicateStats`].
//!
//! The file format is JSONL on purpose: appends are atomic enough for
//! a single writer, partial tools (`grep`, `jq`, `tail`) work on it
//! directly, and a corrupt line is diagnosed with its line number
//! instead of poisoning the whole file. `scanshare history` renders a
//! ledger as per-metric trend tables; `bench_gate --history` appends
//! to one and runs the trailing-window change-point check against it.

use scanshare_engine::RunReport;
use serde::{Deserialize, Serialize};
use std::io::Write as _;

use crate::stats::ReplicateStats;

/// One named virtual-clock measurement in a ledger entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name (same names as the gate baseline).
    pub name: String,
    /// Measured value — exact, because virtual-clock metrics are
    /// bit-identical across reps and machines.
    pub value: f64,
}

/// The replicated wall-clock section of an entry. Unlike the virtual
/// metrics these are host noise, so they are stored as robust summaries
/// over `reps` repetitions rather than as single points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallStats {
    /// How many times the workload was repeated.
    pub reps: u64,
    /// Worker threads each repetition ran on.
    pub jobs: u64,
    /// Wall milliseconds per repetition (median/MAD/bootstrap CI).
    pub wall_ms: ReplicateStats,
    /// Simulated pages per wall-second per repetition.
    pub pages_per_wall_sec: ReplicateStats,
}

/// One appended run: provenance + config + metrics + wall summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Git commit of the working tree (`unknown` outside a checkout).
    pub git_sha: String,
    /// ISO-8601 UTC timestamp the entry was recorded (`unknown` when
    /// the host clock is unavailable). Informational only — nothing
    /// deterministic reads it back.
    pub recorded_at: String,
    /// What produced the entry: `bench_gate`, or `exp_<id>` for a row
    /// of the experiment table.
    pub source: String,
    /// Sharing policy of the measured run, when not the default.
    pub policy: Option<String>,
    /// Fault-plan file applied to the run, if any.
    pub faults: Option<String>,
    /// Delivery mode of the measured run (`push`), when not the default
    /// pull. Tagged entries trend as their own series (`push:<metric>`)
    /// so the two delivery modes never pollute each other's trajectory.
    #[serde(default)]
    pub delivery: Option<String>,
    /// Virtual-clock metrics, identical across reps by construction.
    pub metrics: Vec<MetricSample>,
    /// Replicated wall-clock summary (absent for purely virtual runs).
    pub wall: Option<WallStats>,
}

impl HistoryEntry {
    /// The entry `source` records for a base/scan-sharing pair, stamped
    /// with the working tree's git SHA and the current time: the 8
    /// virtual-clock metrics the CI gate pins, no fault plan, no wall
    /// section.
    pub fn of_pair(source: &str, base: &RunReport, ss: &RunReport) -> HistoryEntry {
        HistoryEntry {
            git_sha: git_sha(),
            recorded_at: utc_now_iso(),
            source: source.to_string(),
            policy: ss.policy.map(|p| p.to_string()),
            faults: None,
            // A push-mode run stamps its summary on the report; pull runs
            // stay untagged so old and new ledgers trend the same series.
            delivery: ss.push.as_ref().map(|_| "push".to_string()),
            metrics: crate::gate::collect_metrics(base, ss)
                .into_iter()
                .map(|m| MetricSample {
                    name: m.name,
                    value: m.value,
                })
                .collect(),
            wall: None,
        }
    }

    /// Value of metric `name`, if the entry recorded it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Append one entry to the ledger at `path` as a single compact JSON
/// line, creating the file if needed.
pub fn append(path: &str, entry: &HistoryEntry) -> Result<(), String> {
    let json =
        serde_json::to_string(entry).map_err(|e| format!("cannot serialize ledger entry: {e}"))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open ledger {path}: {e}"))?;
    writeln!(f, "{json}").map_err(|e| format!("cannot append to ledger {path}: {e}"))
}

/// Load a ledger: one [`HistoryEntry`] per non-blank line, oldest
/// first. A malformed line fails with its 1-based line number so the
/// offending entry can be found (and removed) by hand.
pub fn load(path: &str) -> Result<Vec<HistoryEntry>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read ledger {path}: {e}"))?;
    parse(&text).map_err(|e| format!("ledger {path}: {e}"))
}

/// Parse ledger text (exposed for tests and in-memory use).
pub fn parse(text: &str) -> Result<Vec<HistoryEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry: HistoryEntry =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        entries.push(entry);
    }
    Ok(entries)
}

/// The working tree's commit SHA (12 hex chars), or `"unknown"` when
/// `git` is unavailable or the directory is not a checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`, or `"unknown"` if
/// the host clock predates the epoch. Used only for ledger provenance —
/// never on a deterministic path.
pub fn utc_now_iso() -> String {
    match std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => iso_from_epoch_secs(d.as_secs()),
        Err(_) => "unknown".to_string(),
    }
}

/// Render epoch seconds as an ISO-8601 UTC timestamp. Civil-date
/// conversion follows Howard Hinnant's `civil_from_days` algorithm.
pub fn iso_from_epoch_secs(secs: u64) -> String {
    let days = secs / 86_400;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // Shift the epoch from 1970-01-01 to 0000-03-01 (era alignment).
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // day of year, Mar-based
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(sha: &str, wall_median: f64) -> HistoryEntry {
        HistoryEntry {
            git_sha: sha.to_string(),
            recorded_at: "2026-08-09T12:00:00Z".to_string(),
            source: "bench_gate".to_string(),
            policy: None,
            faults: None,
            delivery: None,
            metrics: vec![
                MetricSample {
                    name: "ss_makespan_us".into(),
                    value: 7_450_866.0,
                },
                MetricSample {
                    name: "ss_hit_ratio_pct".into(),
                    value: 27.08,
                },
            ],
            wall: Some(WallStats {
                reps: 5,
                jobs: 1,
                wall_ms: ReplicateStats::from_samples(&[
                    wall_median,
                    wall_median * 1.02,
                    wall_median * 0.98,
                ]),
                pages_per_wall_sec: ReplicateStats::from_samples(&[1e6, 1.1e6, 0.9e6]),
            }),
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let path =
            std::env::temp_dir().join(format!("scanshare_history_{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        std::fs::remove_file(&path).ok();
        let a = entry("aaaa", 12.0);
        let b = entry("bbbb", 13.0);
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        let back = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, vec![a, b]);
    }

    #[test]
    fn metric_lookup_finds_by_name() {
        let e = entry("cccc", 10.0);
        assert_eq!(e.metric("ss_hit_ratio_pct"), Some(27.08));
        assert_eq!(e.metric("nope"), None);
    }

    #[test]
    fn malformed_lines_are_reported_with_their_number() {
        let good = serde_json::to_string(&entry("dddd", 10.0)).unwrap();
        let text = format!("{good}\n\n{{not json\n");
        let err = parse(&text).unwrap_err();
        assert!(err.contains("line 3"), "got: {err}");
        // Blank lines are skipped, not errors.
        let ok = parse(&format!("{good}\n\n{good}\n")).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn entries_without_a_delivery_tag_still_parse() {
        // Ledger lines written before the delivery tag existed lack the
        // field entirely; they must load as the default (pull, None).
        let good = serde_json::to_string(&entry("eeee", 10.0)).unwrap();
        assert!(good.contains("\"delivery\":null"), "got: {good}");
        let legacy = good.replace("\"delivery\":null,", "");
        let back = parse(&legacy).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].delivery, None);
        // And a tagged entry round-trips its tag.
        let mut tagged = entry("ffff", 10.0);
        tagged.delivery = Some("push".to_string());
        let line = serde_json::to_string(&tagged).unwrap();
        assert_eq!(parse(&line).unwrap()[0].delivery.as_deref(), Some("push"));
    }

    #[test]
    fn iso_rendering_matches_known_dates() {
        assert_eq!(iso_from_epoch_secs(0), "1970-01-01T00:00:00Z");
        // 2026-08-09 00:00:00 UTC.
        assert_eq!(iso_from_epoch_secs(1_786_233_600), "2026-08-09T00:00:00Z");
        // Leap-day coverage: 2024-02-29 12:34:56 UTC.
        assert_eq!(iso_from_epoch_secs(1_709_209_927), "2024-02-29T12:32:07Z");
    }
}
