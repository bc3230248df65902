//! Execution tracing: a structured event log of every sharing decision.
//!
//! Attached to a run via [`crate::workload::WorkloadSpec`]'s engine
//! config, the trace records placements, wraps, throttle waits, and scan
//! lifecycles with their virtual timestamps — the raw material for
//! debugging a sharing decision ("why did scan 7 start in the middle?")
//! and for the `adaptive_throttling`-style walkthroughs.

use scanshare::{ScanId, StartDecision};
use scanshare_storage::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One traced event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A scan registered with the manager.
    ScanStarted {
        /// Manager-assigned id.
        scan: ScanId,
        /// Query name.
        query: String,
        /// Stream index.
        stream: usize,
        /// Whether placement joined another scan ("join") or started at
        /// the range beginning ("fresh").
        placement: String,
    },
    /// A scan entered its second (wrap-around) phase.
    ScanWrapped {
        /// The wrapping scan.
        scan: ScanId,
    },
    /// The manager injected a throttle wait into a leader.
    Throttled {
        /// The throttled scan.
        scan: ScanId,
        /// Injected wait.
        wait: SimDuration,
        /// The scan's role at that moment.
        role: String,
    },
    /// A scan finished its range.
    ScanFinished {
        /// The finished scan.
        scan: ScanId,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

/// Shared, thread-safe event sink with a bounded buffer (oldest events
/// are dropped past the cap, so long runs cannot exhaust memory).
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

#[derive(Debug)]
struct TracerInner {
    /// Ring buffer: O(1) drop-oldest once the cap is reached.
    records: VecDeque<TraceRecord>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// Create a tracer retaining at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                records: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
            })),
        }
    }

    /// Record an event.
    pub fn record(&self, at: SimTime, event: TraceEvent) {
        let mut inner = self.inner.lock().expect("tracer lock");
        if inner.records.len() >= inner.cap {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(TraceRecord { at, event });
    }

    /// Snapshot of the retained events, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner
            .lock()
            .expect("tracer lock")
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Events dropped due to the cap.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("tracer lock").dropped
    }

    /// The retained events as JSON lines, one event object per line —
    /// parse back with [`records_from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        records_to_jsonl(&self.records())
    }

    /// Human-readable rendering of the retained events. Ends with a
    /// `(dropped N older events)` line when the cap was exceeded.
    pub fn render(&self) -> String {
        let mut out = render_records(&self.records());
        let dropped = self.dropped();
        if dropped > 0 {
            use std::fmt::Write;
            let _ = writeln!(out, "(dropped {dropped} older events)");
        }
        out
    }
}

/// Serialize records as JSON lines (one `TraceRecord` object per line).
pub fn records_to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).expect("trace record serializes"));
        out.push('\n');
    }
    out
}

/// Parse a JSON-lines trace back into records. Blank lines are skipped;
/// the error names the offending line.
pub fn records_from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

/// Human-readable rendering of a record slice.
pub fn render_records(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        use std::fmt::Write;
        let _ = match &r.event {
            TraceEvent::ScanStarted {
                scan,
                query,
                stream,
                placement,
            } => writeln!(
                out,
                "{} scan {:>3} start   {query} (stream {stream}, {placement})",
                r.at, scan.0
            ),
            TraceEvent::ScanWrapped { scan } => {
                writeln!(out, "{} scan {:>3} wrap", r.at, scan.0)
            }
            TraceEvent::Throttled { scan, wait, role } => {
                writeln!(out, "{} scan {:>3} throttle {wait} ({role})", r.at, scan.0)
            }
            TraceEvent::ScanFinished { scan } => {
                writeln!(out, "{} scan {:>3} finish", r.at, scan.0)
            }
        };
    }
    out
}

/// One scan's lifecycle, reassembled from its trace events: a span from
/// start to finish with the wraps and throttle waits attributed to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanSpan {
    /// The scan.
    pub scan: ScanId,
    /// Query name, from the start event.
    pub query: String,
    /// Stream index, from the start event.
    pub stream: usize,
    /// Placement label, from the start event.
    pub placement: String,
    /// When the scan started (`None` if the start event was dropped).
    pub start: Option<SimTime>,
    /// When the scan finished (`None` if still running or dropped).
    pub finish: Option<SimTime>,
    /// Times the scan wrapped to its second phase.
    pub wraps: Vec<SimTime>,
    /// Number of throttle waits injected.
    pub throttles: u64,
    /// Total injected throttle wait.
    pub throttle_wait: SimDuration,
}

impl ScanSpan {
    /// Start-to-finish duration, when both ends were traced.
    pub fn elapsed(&self) -> Option<SimDuration> {
        Some(self.finish?.since(self.start?))
    }

    fn empty(scan: ScanId) -> Self {
        ScanSpan {
            scan,
            query: String::new(),
            stream: 0,
            placement: String::new(),
            start: None,
            finish: None,
            wraps: Vec::new(),
            throttles: 0,
            throttle_wait: SimDuration::ZERO,
        }
    }
}

/// Reassemble per-scan spans from an event log, in scan-id order.
pub fn spans(records: &[TraceRecord]) -> Vec<ScanSpan> {
    let mut by_scan: Vec<ScanSpan> = Vec::new();
    let span_of = |id: ScanId, by_scan: &mut Vec<ScanSpan>| -> usize {
        if let Some(i) = by_scan.iter().position(|s| s.scan == id) {
            return i;
        }
        by_scan.push(ScanSpan::empty(id));
        by_scan.len() - 1
    };
    for r in records {
        match &r.event {
            TraceEvent::ScanStarted {
                scan,
                query,
                stream,
                placement,
            } => {
                let i = span_of(*scan, &mut by_scan);
                let s = &mut by_scan[i];
                s.query = query.clone();
                s.stream = *stream;
                s.placement = placement.clone();
                s.start = Some(r.at);
            }
            TraceEvent::ScanWrapped { scan } => {
                let i = span_of(*scan, &mut by_scan);
                by_scan[i].wraps.push(r.at);
            }
            TraceEvent::Throttled { scan, wait, .. } => {
                let i = span_of(*scan, &mut by_scan);
                by_scan[i].throttles += 1;
                by_scan[i].throttle_wait += *wait;
            }
            TraceEvent::ScanFinished { scan } => {
                let i = span_of(*scan, &mut by_scan);
                by_scan[i].finish = Some(r.at);
            }
        }
    }
    by_scan.sort_by_key(|s| s.scan);
    by_scan
}

/// Helper: describe a placement decision for the trace.
pub fn placement_label(d: &StartDecision) -> String {
    match d {
        StartDecision::FromStart => "fresh".to_string(),
        StartDecision::JoinAt {
            scan: Some(s),
            location,
            ..
        } => format!("join scan {} @ key {}", s.0, location.key),
        StartDecision::JoinAt {
            scan: None,
            location,
            back_up_pages,
        } => format!(
            "join finished @ key {} (-{} pages)",
            location.key, back_up_pages
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_events() {
        let t = Tracer::new(16);
        t.record(
            SimTime::from_millis(5),
            TraceEvent::ScanStarted {
                scan: ScanId(1),
                query: "Q6".into(),
                stream: 0,
                placement: "fresh".into(),
            },
        );
        t.record(
            SimTime::from_millis(9),
            TraceEvent::Throttled {
                scan: ScanId(1),
                wait: SimDuration::from_millis(3),
                role: "leader".into(),
            },
        );
        t.record(
            SimTime::from_millis(20),
            TraceEvent::ScanFinished { scan: ScanId(1) },
        );
        let records = t.records();
        assert_eq!(records.len(), 3);
        assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
        let text = t.render();
        assert!(text.contains("Q6"));
        assert!(text.contains("throttle"));
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn cap_drops_oldest() {
        let t = Tracer::new(2);
        for i in 0..5 {
            t.record(
                SimTime::from_millis(i),
                TraceEvent::ScanFinished { scan: ScanId(i) },
            );
        }
        let r = t.records();
        assert_eq!(r.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(r[0].event, TraceEvent::ScanFinished { scan: ScanId(3) });
    }

    #[test]
    fn labels_describe_decisions() {
        use scanshare::Location;
        assert_eq!(placement_label(&StartDecision::FromStart), "fresh");
        let j = StartDecision::JoinAt {
            location: Location::new(7, 9),
            scan: Some(ScanId(4)),
            back_up_pages: 0,
        };
        assert_eq!(placement_label(&j), "join scan 4 @ key 7");
        let f = StartDecision::JoinAt {
            location: Location::new(7, 9),
            scan: None,
            back_up_pages: 320,
        };
        assert!(placement_label(&f).contains("finished"));
    }

    #[test]
    fn render_surfaces_the_dropped_count() {
        let t = Tracer::new(2);
        for i in 0..5 {
            t.record(
                SimTime::from_millis(i),
                TraceEvent::ScanFinished { scan: ScanId(i) },
            );
        }
        let text = t.render();
        assert!(text.contains("(dropped 3 older events)"), "got: {text}");
        // An un-capped tracer renders no dropped line.
        assert!(!Tracer::new(16).render().contains("dropped"));
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let t = Tracer::new(16);
        t.record(
            SimTime::from_millis(1),
            TraceEvent::ScanStarted {
                scan: ScanId(0),
                query: "Q6".into(),
                stream: 2,
                placement: "join scan 1 @ key 42".into(),
            },
        );
        t.record(
            SimTime::from_millis(2),
            TraceEvent::ScanWrapped { scan: ScanId(0) },
        );
        t.record(
            SimTime::from_millis(3),
            TraceEvent::Throttled {
                scan: ScanId(0),
                wait: SimDuration::from_micros(1234),
                role: "leader".into(),
            },
        );
        t.record(
            SimTime::from_millis(4),
            TraceEvent::ScanFinished { scan: ScanId(0) },
        );
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        let back = records_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, t.records());
        // Blank lines are tolerated; garbage is reported with its line.
        assert_eq!(records_from_jsonl("\n\n").unwrap(), vec![]);
        let err = records_from_jsonl("{not json}").unwrap_err();
        assert!(err.contains("line 1"), "got: {err}");
    }

    #[test]
    fn spans_reassemble_scan_lifecycles() {
        let t = Tracer::new(64);
        t.record(
            SimTime::from_millis(10),
            TraceEvent::ScanStarted {
                scan: ScanId(1),
                query: "Q6".into(),
                stream: 0,
                placement: "fresh".into(),
            },
        );
        t.record(
            SimTime::from_millis(12),
            TraceEvent::ScanStarted {
                scan: ScanId(2),
                query: "Q6".into(),
                stream: 1,
                placement: "join scan 1 @ key 5".into(),
            },
        );
        t.record(
            SimTime::from_millis(20),
            TraceEvent::Throttled {
                scan: ScanId(1),
                wait: SimDuration::from_millis(3),
                role: "leader".into(),
            },
        );
        t.record(
            SimTime::from_millis(30),
            TraceEvent::Throttled {
                scan: ScanId(1),
                wait: SimDuration::from_millis(2),
                role: "leader".into(),
            },
        );
        t.record(
            SimTime::from_millis(40),
            TraceEvent::ScanWrapped { scan: ScanId(2) },
        );
        t.record(
            SimTime::from_millis(50),
            TraceEvent::ScanFinished { scan: ScanId(1) },
        );
        t.record(
            SimTime::from_millis(60),
            TraceEvent::ScanFinished { scan: ScanId(2) },
        );
        let spans = spans(&t.records());
        assert_eq!(spans.len(), 2);
        let s1 = &spans[0];
        assert_eq!(s1.scan, ScanId(1));
        assert_eq!(s1.query, "Q6");
        assert_eq!(s1.throttles, 2);
        assert_eq!(s1.throttle_wait, SimDuration::from_millis(5));
        assert_eq!(s1.elapsed(), Some(SimDuration::from_millis(40)));
        assert!(s1.wraps.is_empty());
        let s2 = &spans[1];
        assert_eq!(s2.wraps, vec![SimTime::from_millis(40)]);
        assert_eq!(s2.stream, 1);
        assert!(s2.placement.contains("join"));
    }

    #[test]
    fn spans_tolerate_dropped_start_events() {
        // Only a finish survived the cap: the span exists but has no
        // start, so elapsed is unknown.
        let records = vec![TraceRecord {
            at: SimTime::from_millis(9),
            event: TraceEvent::ScanFinished { scan: ScanId(7) },
        }];
        let s = spans(&records);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].start, None);
        assert_eq!(s[0].elapsed(), None);
        assert_eq!(s[0].finish, Some(SimTime::from_millis(9)));
    }

    #[test]
    fn tracer_is_cheap_to_clone_and_share() {
        let t = Tracer::new(8);
        let t2 = t.clone();
        t2.record(SimTime::ZERO, TraceEvent::ScanFinished { scan: ScanId(0) });
        assert_eq!(t.records().len(), 1);
    }
}
