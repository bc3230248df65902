//! Self-profiler rendering for `scanshare profile`.
//!
//! Turns a [`ProfileSummary`] — embedded in a saved report by
//! `run --profile-out` — into a per-phase cost table (both clocks) and,
//! with `--collapse`, the folded-stack text that flamegraph tooling
//! consumes directly.

use scanshare::ProfileSummary;
use std::fmt::Write;

fn vt_secs(us: u64) -> f64 {
    us as f64 / 1e6
}

fn wall_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Render the per-phase table: virtual inclusive/exclusive time with
/// share-of-total, and — when the summary still carries its wall-clock
/// section — host-side exclusive milliseconds with share-of-recording.
///
/// Virtual exclusive percentages can sum past 100%: concurrently
/// simulated streams each bank their own virtual time (stream-seconds),
/// while the wall column always partitions the single-threaded
/// recording exactly.
pub fn render_profile(sum: &ProfileSummary, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== span profile: {} spans ({} dropped), total virtual time {:.3}s ==",
        sum.spans,
        sum.dropped,
        vt_secs(sum.total_vt_us),
    );
    let name_w = sum
        .phases
        .iter()
        .map(|p| p.name.len())
        .max()
        .unwrap_or(5)
        .max(5);
    let _ = writeln!(
        out,
        "  {:<name_w$} {:>8} {:>12} {:>12} {:>7} {:>14} {:>7}",
        "phase", "count", "vt incl(s)", "vt excl(s)", "vt%", "wall excl(ms)", "wall%"
    );
    let total_vt = sum.total_vt_us.max(1) as f64;
    for (i, p) in sum.phases.iter().enumerate() {
        let (wall_col, wall_pct) = match &sum.wall {
            Some(w) => {
                let ph = w.phases.get(i).filter(|wp| wp.name == p.name);
                let excl = ph.map(|wp| wp.excl_ns).unwrap_or(0);
                (
                    format!("{:>14.3}", wall_ms(excl)),
                    format!("{:>6.1}%", excl as f64 * 100.0 / w.total_ns.max(1) as f64),
                )
            }
            None => (format!("{:>14}", "-"), format!("{:>7}", "-")),
        };
        let _ = writeln!(
            out,
            "  {:<name_w$} {:>8} {:>12.3} {:>12.3} {:>6.1}% {wall_col} {wall_pct}",
            p.name,
            p.count,
            vt_secs(p.vt_incl_us),
            vt_secs(p.vt_excl_us),
            p.vt_excl_us as f64 * 100.0 / total_vt,
        );
    }
    let hottest = &sum.hottest[..top.min(sum.hottest.len())];
    if !hottest.is_empty() {
        let _ = writeln!(out, "\n== hottest spans (top {}) ==", hottest.len());
        for h in hottest {
            let _ = writeln!(
                out,
                "  {:<20} {:<10} start {:>9.3}s  {:>9.3}s",
                h.name,
                h.track.label(),
                vt_secs(h.vt_start_us),
                vt_secs(h.vt_us),
            );
        }
    }
    out
}

/// Render the folded flamegraph stacks (`a;b;c <µs>` per line) — the
/// exact input format of `flamegraph.pl` / speedscope.
pub fn render_collapsed(sum: &ProfileSummary) -> String {
    sum.collapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare::{SpanProfiler, Track};
    use scanshare_storage::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sample() -> ProfileSummary {
        let p = SpanProfiler::default();
        let root = p.begin(Track::Driver, "engine.run", t(0));
        let step = p.begin(Track::Stream(0), "scan.step", t(0));
        let fetch = p.begin_child("extent.fetch", t(0));
        p.end(fetch, t(700));
        p.end(step, t(1_000));
        p.end(root, t(1_500));
        p.summary()
    }

    #[test]
    fn table_names_phases_and_both_clocks() {
        let text = render_profile(&sample(), 10);
        assert!(text.contains("3 spans"), "got: {text}");
        assert!(text.contains("total virtual time 0.002s"), "got: {text}");
        for phase in ["engine.run", "scan.step", "extent.fetch"] {
            assert!(text.contains(phase), "missing {phase}: {text}");
        }
        assert!(text.contains("wall excl(ms)"), "got: {text}");
        assert!(text.contains("hottest spans"), "got: {text}");
    }

    #[test]
    fn stripped_summary_renders_dashes_for_wall() {
        let text = render_profile(&sample().virtual_only(), 2);
        assert!(text.contains('-'), "got: {text}");
        assert!(text.contains("hottest spans (top 2)"), "got: {text}");
    }

    #[test]
    fn collapsed_is_flamegraph_folded_format() {
        let folded = render_collapsed(&sample());
        assert!(
            folded.contains("engine.run;scan.step;extent.fetch 700"),
            "got: {folded}"
        );
        for line in folded.lines() {
            let (_, n) = line.rsplit_once(' ').expect("stack <µs>");
            n.parse::<u64>().expect("exclusive µs");
        }
    }
}
