//! Causal narratives from a saved run's decision log.
//!
//! `scanshare explain` replays the [`RunReport`]'s embedded
//! `DecisionRecord`s — the provenance the sharing manager recorded for
//! every placement, throttle, cap, role, and priority decision — as
//! per-scan narratives ("why was scan 3 slowed down?") and per-group
//! timelines. Each line names the inputs the policy saw: candidate
//! savings against the placement threshold, leader–trailer distance
//! against the throttle threshold, accumulated slowdown against the
//! fairness-cap budget.

use scanshare::decision::{describe, slowdown_frac};
use scanshare::{DecisionEvent, DecisionRecord, ScanId};
use scanshare_engine::RunReport;
use std::fmt::Write;

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

fn sorted_by_time(records: &[DecisionRecord]) -> Vec<&DecisionRecord> {
    let mut sorted: Vec<&DecisionRecord> = records.iter().collect();
    // Stable: records at equal times keep their emission order.
    sorted.sort_by_key(|r| r.at);
    sorted
}

fn kind_name(e: &DecisionEvent) -> &'static str {
    match e {
        DecisionEvent::PolicyChosen { .. } => "policy",
        DecisionEvent::GroupStart { .. } => "group-start",
        DecisionEvent::GroupJoin { .. } => "group-join",
        DecisionEvent::Throttle { .. } => "throttle",
        DecisionEvent::Unthrottle { .. } => "unthrottle",
        DecisionEvent::SlowdownCapHit { .. } => "cap-hit",
        DecisionEvent::RoleChange { .. } => "role-change",
        DecisionEvent::PageReprioritize { .. } => "reprioritize",
        DecisionEvent::FaultInjected { .. } => "fault",
        DecisionEvent::ScanEvicted { .. } => "evicted",
        DecisionEvent::DegradedMode { .. } => "degraded",
        DecisionEvent::DriverAttach { .. } => "driver-attach",
        DecisionEvent::DriverHandoff { .. } => "driver-handoff",
        DecisionEvent::ScanStarted { .. } => "started",
        DecisionEvent::ScanWrapped { .. } => "wrapped",
        DecisionEvent::ScanEnded { .. } => "ended",
    }
}

/// The distinct scans a decision log mentions, in id order.
pub fn scans_mentioned(records: &[DecisionRecord]) -> Vec<ScanId> {
    let mut ids: Vec<ScanId> = records.iter().map(|r| r.event.scan()).collect();
    ids.sort();
    ids.dedup();
    ids
}

fn narrative_for(out: &mut String, records: &[&DecisionRecord], scan: ScanId) {
    let mine: Vec<&&DecisionRecord> = records.iter().filter(|r| r.event.scan() == scan).collect();
    let _ = writeln!(
        out,
        "== scan {} narrative ({} decisions) ==",
        scan.0,
        mine.len()
    );
    let mut total_wait = 0u64;
    for r in &mine {
        if let DecisionEvent::Throttle { wait, .. } = &r.event {
            total_wait += wait.as_micros();
        }
        let _ = writeln!(
            out,
            "  {:>9.3}s  {}",
            secs(r.at.as_micros()),
            describe(&r.event)
        );
    }
    // Closing state: what the accumulated throttling amounted to.
    let last_throttle = mine.iter().rev().find_map(|r| match &r.event {
        DecisionEvent::Throttle {
            accumulated_slowdown,
            slowdown_budget,
            fairness_cap,
            ..
        } => Some((*accumulated_slowdown, *slowdown_budget, *fairness_cap)),
        _ => None,
    });
    if let Some((acc, budget, cap)) = last_throttle {
        let _ = writeln!(
            out,
            "  -- total injected wait {:.3}s; final slowdown {:.1}% of the {:.0}% budget ({budget})",
            secs(total_wait),
            slowdown_frac(acc, budget) * 100.0,
            cap * 100.0,
        );
    }
    out.push('\n');
}

fn group_timelines(out: &mut String, records: &[&DecisionRecord]) {
    let mut anchors: Vec<u64> = records
        .iter()
        .filter_map(|r| r.event.group())
        .map(|a| a.0)
        .collect();
    anchors.sort_unstable();
    anchors.dedup();
    for a in anchors {
        let events: Vec<&&DecisionRecord> = records
            .iter()
            .filter(|r| r.event.group().map(|g| g.0) == Some(a))
            .collect();
        let _ = writeln!(out, "== group {a} timeline ({} decisions) ==", events.len());
        for r in events {
            let _ = writeln!(
                out,
                "  {:>9.3}s  {}",
                secs(r.at.as_micros()),
                describe(&r.event)
            );
        }
        out.push('\n');
    }
}

/// Render the full explanation of a saved run, or of a single scan when
/// `scan` is given. Errors when the requested scan has no decisions.
pub fn render_explain(report: &RunReport, scan: Option<u64>) -> Result<String, String> {
    let mut out = String::new();
    // Reports stamp only the related work's placements, not the paper's;
    // name it up front so the narrative reads correctly.
    if let Some(p) = report.policy {
        let _ = writeln!(
            out,
            "run used the non-default '{}' sharing policy; decisions below follow it\n",
            p.policy_name()
        );
    }
    // Service-level verdicts come first: they are the run's contract,
    // and the decisions below are the evidence for why they held or
    // broke (throttle waits stretch queries, placement misses cost
    // hit ratio).
    if scan.is_none() && !report.slo.is_empty() {
        let breached = report.slo.iter().filter(|v| !v.passed).count();
        let _ = writeln!(
            out,
            "== SLO verdicts: {} of {} rule(s) breached ==",
            breached,
            report.slo.len()
        );
        for v in &report.slo {
            let status = if v.passed { "PASS" } else { "FAIL" };
            let why = if v.note.is_empty() {
                format!("observed {:.4}", v.observed)
            } else {
                v.note.clone()
            };
            let _ = writeln!(
                out,
                "  {status}  {:<16} wants {} {} {:.4} — {why}",
                v.rule,
                v.metric,
                v.op.symbol(),
                v.threshold,
            );
        }
        out.push('\n');
    }
    if report.decisions.is_empty() {
        out.push_str(
            "no decisions recorded (base-mode run, or artifact predating decision provenance)\n",
        );
        return match scan {
            Some(id) => Err(format!("no decisions for scan {id}: the artifact has none")),
            None => Ok(out),
        };
    }
    let sorted = sorted_by_time(&report.decisions);
    let scans = scans_mentioned(&report.decisions);

    if let Some(id) = scan {
        let id = ScanId(id);
        if !scans.contains(&id) {
            let known: Vec<String> = scans.iter().map(|s| s.0.to_string()).collect();
            return Err(format!(
                "no decisions for scan {} (scans with decisions: {})",
                id.0,
                known.join(", ")
            ));
        }
        narrative_for(&mut out, &sorted, id);
        return Ok(out);
    }

    // Summary header: how much provenance there is, of what kinds.
    let mut kinds: Vec<(&'static str, usize)> = Vec::new();
    for r in &sorted {
        let k = kind_name(&r.event);
        match kinds.iter_mut().find(|(name, _)| *name == k) {
            Some((_, n)) => *n += 1,
            None => kinds.push((k, 1)),
        }
    }
    let _ = writeln!(
        out,
        "== decision summary: {} decisions over {} scans ==",
        sorted.len(),
        scans.len()
    );
    for (k, n) in &kinds {
        let _ = writeln!(out, "  {k:<14} {n:>6}");
    }
    out.push('\n');

    for s in scans {
        narrative_for(&mut out, &sorted, s);
    }
    group_timelines(&mut out, &sorted);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare::anchor::AnchorId;
    use scanshare::{Location, ObjectId, PlacementCandidate};
    use scanshare_storage::{SimDuration, SimTime};

    fn report_with(decisions: Vec<DecisionRecord>) -> RunReport {
        RunReport {
            makespan: SimDuration::from_secs(1),
            stream_elapsed: vec![],
            queries: vec![],
            breakdown: Default::default(),
            disk: Default::default(),
            read_series: Default::default(),
            seek_series: Default::default(),
            seek_distance_series: Default::default(),
            pool: Default::default(),
            sharing: Default::default(),
            metrics: Default::default(),
            decisions,
            faults: Default::default(),
            policy: None,
            profile: None,
            slo: Vec::new(),
            push: None,
        }
    }

    fn sample_log() -> Vec<DecisionRecord> {
        vec![
            DecisionRecord {
                at: SimTime::from_millis(5),
                event: DecisionEvent::GroupStart {
                    scan: ScanId(0),
                    object: ObjectId(1),
                    candidates: vec![],
                    threshold_pages: 16.0,
                },
            },
            DecisionRecord {
                at: SimTime::from_millis(40),
                event: DecisionEvent::GroupJoin {
                    scan: ScanId(1),
                    object: ObjectId(1),
                    joined: Some(ScanId(0)),
                    location: Location::new(480, 480),
                    back_up_pages: 0,
                    candidates: vec![PlacementCandidate {
                        scan: Some(ScanId(0)),
                        location: Location::new(480, 480),
                        saving_pages: 300.0,
                        score: 0.7,
                        speed: 90.0,
                    }],
                    threshold_pages: 16.0,
                },
            },
            DecisionRecord {
                at: SimTime::from_millis(90),
                event: DecisionEvent::Throttle {
                    scan: ScanId(0),
                    group: AnchorId(2),
                    distance_pages: 64,
                    threshold_pages: 32,
                    wait: SimDuration::from_millis(20),
                    accumulated_slowdown: SimDuration::from_millis(20),
                    slowdown_budget: SimDuration::from_secs(4),
                    fairness_cap: 0.8,
                    trailer: ScanId(1),
                    trailer_speed: 55.0,
                },
            },
            DecisionRecord {
                at: SimTime::from_millis(200),
                event: DecisionEvent::Unthrottle {
                    scan: ScanId(0),
                    group: AnchorId(2),
                    distance_pages: 16,
                    threshold_pages: 32,
                },
            },
        ]
    }

    #[test]
    fn full_explanation_covers_scans_and_groups() {
        let text = render_explain(&report_with(sample_log()), None).unwrap();
        assert!(text.contains("4 decisions over 2 scans"), "got: {text}");
        assert!(text.contains("scan 0 narrative"));
        assert!(text.contains("scan 1 narrative"));
        assert!(text.contains("group 2 timeline"));
        // The acceptance bar: throttle lines name the distance threshold
        // and the fairness-cap values.
        assert!(text.contains("threshold 32 pages"), "got: {text}");
        assert!(text.contains("80% of budget"), "got: {text}");
        assert!(text.contains("total injected wait 0.020s"));
    }

    #[test]
    fn single_scan_narrative_filters_and_unknown_scan_errors() {
        let report = report_with(sample_log());
        let text = render_explain(&report, Some(1)).unwrap();
        assert!(text.contains("scan 1 narrative"));
        assert!(!text.contains("scan 0 narrative"));
        let err = render_explain(&report, Some(9)).unwrap_err();
        assert!(err.contains("no decisions for scan 9"), "got: {err}");
        assert!(err.contains("0, 1"), "got: {err}");
    }

    #[test]
    fn empty_log_explains_itself() {
        let report = report_with(vec![]);
        let text = render_explain(&report, None).unwrap();
        assert!(text.contains("no decisions recorded"));
        assert!(render_explain(&report, Some(0)).is_err());
    }

    #[test]
    fn non_default_policy_is_named_and_narrated() {
        let mut log = sample_log();
        log.insert(
            0,
            DecisionRecord {
                at: SimTime::ZERO,
                event: DecisionEvent::PolicyChosen {
                    scan: ScanId(0),
                    policy: scanshare::Placement::Attach,
                },
            },
        );
        let mut report = report_with(log);
        report.policy = Some(scanshare::Placement::Attach);
        let text = render_explain(&report, None).unwrap();
        assert!(
            text.contains("non-default 'attach' sharing policy"),
            "got: {text}"
        );
        assert!(text.contains("policy 'attach' selected"), "got: {text}");
        assert!(text.contains("policy"), "got: {text}");
    }

    #[test]
    fn slo_verdicts_lead_the_narrative() {
        use scanshare_engine::slo::{SloOp, SloVerdict};
        let mut report = report_with(sample_log());
        report.slo = vec![
            SloVerdict {
                rule: "fair".into(),
                metric: "p99_stretch".into(),
                op: SloOp::Le,
                threshold: 1.5,
                observed: 2.25,
                passed: false,
                note: String::new(),
            },
            SloVerdict {
                rule: "warm".into(),
                metric: "hit_ratio".into(),
                op: SloOp::Ge,
                threshold: 0.5,
                observed: 0.8,
                passed: true,
                note: String::new(),
            },
        ];
        let text = render_explain(&report, None).unwrap();
        assert!(text.contains("1 of 2 rule(s) breached"), "got: {text}");
        assert!(
            text.contains("FAIL  fair             wants p99_stretch <= 1.5000 — observed 2.2500"),
            "got: {text}"
        );
        assert!(text.contains("PASS  warm"), "got: {text}");
        // The verdicts lead; the decision evidence follows.
        assert!(
            text.find("SLO verdicts").unwrap() < text.find("decision summary").unwrap(),
            "got: {text}"
        );
        // A single-scan narrative stays focused on the scan.
        let one = render_explain(&report, Some(0)).unwrap();
        assert!(!one.contains("SLO verdicts"), "got: {one}");
    }

    #[test]
    fn narratives_are_time_ordered_even_when_the_log_interleaves() {
        let mut log = sample_log();
        log.swap(2, 3); // emission order now violates time order
        let text = render_explain(&report_with(log), Some(0)).unwrap();
        let throttle_pos = text.find("throttled").unwrap();
        let unthrottle_pos = text.find("unthrottled").unwrap();
        assert!(throttle_pos < unthrottle_pos, "got: {text}");
    }
}
