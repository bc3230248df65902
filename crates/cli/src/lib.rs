//! Library half of the `scanshare` command-line driver.
//!
//! The CLI runs scan-sharing comparisons without writing any Rust:
//!
//! ```sh
//! scanshare throughput --streams 5 --scale 0.5      # Table-1-style run
//! scanshare staggered --query q6 --copies 3         # Figure-15-style run
//! scanshare spec-template > myrun.json              # editable spec
//! scanshare run --spec myrun.json --compare         # base vs sharing
//! ```
//!
//! Argument parsing is hand-rolled (no extra dependencies): flags are
//! `--name value` pairs validated against each subcommand's schema.

use scanshare::{DeliveryMode, SharingConfig, SharingPolicyKind, SpanProfiler};
use scanshare_engine::{
    run_workload, run_workload_hooked, Database, FaultsConfig, RunHooks, RunReport, SharingMode,
    Tracer, WorkloadSpec,
};
use scanshare_tpch::{generate, q1, q6, staggered_workload, throughput_workload, TpchConfig};
use serde::{Deserialize, Serialize};

pub mod diff;
pub mod explain;
pub mod profile;
pub mod render;
pub mod watch;

/// A self-contained run description: the database to generate plus the
/// workload to execute against it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSpec {
    /// Data generator configuration.
    pub tpch: TpchConfig,
    /// The workload (streams, pool, engine, mode).
    pub workload: WorkloadSpec,
}

impl RunSpec {
    /// A small editable example spec.
    pub fn template() -> Self {
        let tpch = TpchConfig {
            scale: 0.2,
            ..TpchConfig::default()
        };
        let db = generate(&tpch);
        let workload = throughput_workload(
            &db,
            2,
            tpch.months as i64,
            tpch.seed,
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        RunSpec { tpch, workload }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `throughput --streams N --scale S --seed X` (always compares
    /// base vs scan-sharing — that is the point of the run)
    Throughput {
        streams: usize,
        scale: f64,
        seed: u64,
    },
    /// `staggered --query q1|q6 --copies N --scale S [--stagger-frac F]`
    Staggered {
        query: String,
        copies: usize,
        scale: f64,
        seed: u64,
        stagger_frac: f64,
    },
    /// `run --spec FILE [--db FILE] [--faults FILE] [--compare]
    /// [--policy grouping|attach|elevator] [--delivery pull|push]
    /// [--report OUT] [--trace-out OUT]`
    Run {
        spec: String,
        db: Option<String>,
        faults: Option<String>,
        compare: bool,
        policy: Option<SharingPolicyKind>,
        delivery: Option<DeliveryMode>,
        outputs: RunOutputs,
    },
    /// `trace --artifact FILE`: replay a saved report's event log.
    Trace { artifact: String },
    /// `metrics --artifact FILE [--quantiles]`: render a saved report's
    /// metrics; `--quantiles` expands each histogram into p50/p90/p95/p99
    /// plus its bucket table.
    Metrics { artifact: String, quantiles: bool },
    /// `profile --artifact FILE | --smoke [--collapse] [--top N]`:
    /// render the self-profiler summary of a saved profiled report, or
    /// of a freshly recorded built-in smoke run.
    Profile {
        artifact: Option<String>,
        smoke: bool,
        collapse: bool,
        top: usize,
    },
    /// `explain --artifact FILE [--scan ID]`: narrate a saved report's
    /// decision provenance — why each scan was placed, throttled, capped,
    /// and re-prioritized.
    Explain { artifact: String, scan: Option<u64> },
    /// `watch --spec FILE [--db FILE] [--tick-ms N] [--tail N]
    /// [--no-clear]`: run a spec with a live ASCII dashboard.
    Watch {
        spec: String,
        db: Option<String>,
        tick_ms: u64,
        tail: usize,
        no_clear: bool,
    },
    /// `diff A.json B.json [--json]`: structural diff of two saved
    /// RunReports — headline deltas, per-scan stretch movement, group
    /// lifetimes, series endpoints, SLO flips, fault deltas.
    Diff { a: String, b: String, json: bool },
    /// `generate --scale S --seed X --out FILE`
    Generate { scale: f64, seed: u64, out: String },
    /// `spec-template`
    SpecTemplate,
    /// `help`
    Help,
}

/// Where `run` saves its artifacts, if anywhere. The measured run (the
/// scan-sharing side under `--compare`) executes with a tracer attached
/// whenever either output is requested, so the saved report embeds both
/// the metrics snapshot and the replayable event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutputs {
    /// `--report OUT`: full [`RunReport`] as JSON.
    pub report: Option<String>,
    /// `--trace-out OUT`: the trace alone, as JSON-lines.
    pub trace: Option<String>,
    /// `--profile-out OUT`: span profile as Chrome trace-event JSON
    /// (open at ui.perfetto.dev). Also embeds the folded
    /// [`scanshare::ProfileSummary`] into the report.
    pub profile: Option<String>,
}

impl RunOutputs {
    fn any(&self) -> bool {
        self.report.is_some() || self.trace.is_some()
    }

    fn save(&self, r: &RunReport) -> Result<(), String> {
        if let Some(path) = &self.report {
            scanshare_engine::persist::save_report(r, path)?;
            eprintln!("report saved to {path}");
        }
        if let Some(path) = &self.trace {
            let jsonl = scanshare_engine::trace::records_to_jsonl(&r.trace);
            std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("trace saved to {path}");
        }
        Ok(())
    }
}

/// Error from argument parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, UsageError> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| UsageError(format!("invalid value '{v}' for {name}"))),
    }
}

/// Parse a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, UsageError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "throughput" => Ok(Command::Throughput {
            streams: parse_flag(args, "--streams", 3)?,
            scale: parse_flag(args, "--scale", 0.5)?,
            seed: parse_flag(args, "--seed", 42)?,
        }),
        "staggered" => {
            let query: String = parse_flag(args, "--query", "q6".to_string())?;
            if query != "q1" && query != "q6" {
                return Err(UsageError(format!(
                    "unknown query '{query}' (expected q1 or q6)"
                )));
            }
            Ok(Command::Staggered {
                query,
                copies: parse_flag(args, "--copies", 3)?,
                scale: parse_flag(args, "--scale", 0.5)?,
                seed: parse_flag(args, "--seed", 42)?,
                stagger_frac: parse_flag(args, "--stagger-frac", 0.15)?,
            })
        }
        "run" => {
            let spec = flag_value(args, "--spec")
                .ok_or_else(|| UsageError("run requires --spec FILE".into()))?
                .to_string();
            Ok(Command::Run {
                spec,
                db: flag_value(args, "--db").map(String::from),
                faults: flag_value(args, "--faults").map(String::from),
                compare: args.iter().any(|a| a == "--compare"),
                policy: match flag_value(args, "--policy") {
                    None => None,
                    Some(v) => Some(v.parse().map_err(UsageError)?),
                },
                delivery: match flag_value(args, "--delivery") {
                    None => None,
                    Some(v) => Some(v.parse().map_err(UsageError)?),
                },
                outputs: RunOutputs {
                    report: flag_value(args, "--report").map(String::from),
                    trace: flag_value(args, "--trace-out").map(String::from),
                    profile: flag_value(args, "--profile-out").map(String::from),
                },
            })
        }
        "trace" => Ok(Command::Trace {
            artifact: flag_value(args, "--artifact")
                .ok_or_else(|| UsageError("trace requires --artifact FILE".into()))?
                .to_string(),
        }),
        "metrics" => Ok(Command::Metrics {
            artifact: flag_value(args, "--artifact")
                .ok_or_else(|| UsageError("metrics requires --artifact FILE".into()))?
                .to_string(),
            quantiles: args.iter().any(|a| a == "--quantiles"),
        }),
        "profile" => {
            let artifact = flag_value(args, "--artifact").map(String::from);
            let smoke = args.iter().any(|a| a == "--smoke");
            if artifact.is_none() && !smoke {
                return Err(UsageError(
                    "profile requires --artifact FILE or --smoke".into(),
                ));
            }
            Ok(Command::Profile {
                artifact,
                smoke,
                collapse: args.iter().any(|a| a == "--collapse"),
                top: parse_flag(args, "--top", 10)?,
            })
        }
        "explain" => Ok(Command::Explain {
            artifact: flag_value(args, "--artifact")
                .ok_or_else(|| UsageError("explain requires --artifact FILE".into()))?
                .to_string(),
            scan: match flag_value(args, "--scan") {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("invalid value '{v}' for --scan")))?,
                ),
            },
        }),
        "watch" => Ok(Command::Watch {
            spec: flag_value(args, "--spec")
                .ok_or_else(|| UsageError("watch requires --spec FILE".into()))?
                .to_string(),
            db: flag_value(args, "--db").map(String::from),
            tick_ms: parse_flag(args, "--tick-ms", 250)?,
            tail: parse_flag(args, "--tail", 8)?,
            no_clear: args.iter().any(|a| a == "--no-clear"),
        }),
        "diff" => {
            // Two positional report paths; flags may appear anywhere.
            let mut files = Vec::new();
            for a in &args[1..] {
                if a == "--json" {
                    continue;
                }
                if a.starts_with("--") {
                    return Err(UsageError(format!("unknown flag '{a}' for diff")));
                }
                files.push(a.clone());
            }
            let [a, b] = files.as_slice() else {
                return Err(UsageError(
                    "diff requires exactly two report files: diff A.json B.json".into(),
                ));
            };
            Ok(Command::Diff {
                a: a.clone(),
                b: b.clone(),
                json: args.iter().any(|x| x == "--json"),
            })
        }
        "generate" => Ok(Command::Generate {
            scale: parse_flag(args, "--scale", 0.5)?,
            seed: parse_flag(args, "--seed", 42)?,
            out: flag_value(args, "--out")
                .ok_or_else(|| UsageError("generate requires --out FILE".into()))?
                .to_string(),
        }),
        "spec-template" => Ok(Command::SpecTemplate),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(UsageError(format!("unknown command '{other}'"))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
scanshare — scan-sharing reproduction driver

USAGE:
  scanshare throughput [--streams N] [--scale S] [--seed X]
      N-stream TPC-H throughput run, base vs scan-sharing (Table 1 setup).
  scanshare staggered [--query q1|q6] [--copies N] [--scale S] [--seed X]
                      [--stagger-frac F]
      Staggered single-query run (Figure 15/16 setup).
  scanshare run --spec FILE [--db FILE] [--faults FILE] [--compare]
                [--policy grouping|attach|elevator] [--delivery pull|push]
                [--report OUT] [--trace-out OUT] [--profile-out OUT]
      Execute a JSON RunSpec. The spec's workload section may carry an
      optional \"faults\" subsection (a FaultsConfig: seeded fault plan
      plus retry/timeout policy) — `scanshare spec-template` shows the
      shape. --compare forces base vs scan-sharing;
      --db loads a previously generated database instead of regenerating;
      --faults overrides the spec's \"faults\" subsection with a
      FaultsConfig JSON file;
      --policy selects the scan-sharing policy: grouping (default; the
      paper's grouping + throttling machinery), attach (join the newest
      compatible scan, never throttle), or elevator (one circulating
      read cursor per table);
      --delivery selects how pages reach a group's consumers: pull
      (default; every scan fixes its own pages) or push (one group
      driver fixes each page once and pushes it through every attached
      consumer's row pipeline; the report gains a \"push\" section with
      driver/attach/catch-up counters);
      --report saves the full RunReport (metrics + trace) as JSON,
      --trace-out saves the event log alone as JSON-lines, and
      --profile-out records a hierarchical span profile and saves it as
      Chrome trace-event JSON (open at ui.perfetto.dev; one track per
      scan stream plus manager and driver tracks). With --profile-out
      the report also embeds a folded profile summary readable by
      `scanshare profile`.
      The spec's workload section may also carry an \"slo\" subsection:
      declarative service-level rules (e.g. {\"name\": \"fair\",
      \"metric\": \"p99_stretch\", \"op\": \"<=\", \"value\": 1.5})
      evaluated at end of run into pass/fail verdicts in the report.
      Exits 0 on success, 1 on engine failure, 2 on bad input, 3 when
      injected faults aborted at least one scan (degraded run), and 4
      when the run completed but breached at least one SLO rule.
  scanshare trace --artifact FILE
      Replay a saved RunReport (or raw JSON-lines trace): scan
      lifecycles with attributed throttle waits, then the event log.
  scanshare metrics --artifact FILE [--quantiles]
      Render a saved RunReport's metrics snapshot: counters, latency
      histograms, and per-group/per-scan timelines as text tables.
      --quantiles expands every histogram with p50/p90/p95/p99 rows and
      its full bucket table (inclusive upper bounds).
  scanshare profile (--artifact FILE | --smoke) [--collapse] [--top N]
      Render the self-profiler summary: per-phase inclusive/exclusive
      times on both clocks (deterministic virtual µs, host wall ns) and
      the hottest spans. --artifact reads a report saved by
      `run --profile-out`; --smoke records a fresh built-in run.
      --collapse instead prints flamegraph-folded stacks
      (`phase;child µs` per line) for flamegraph.pl or speedscope.
  scanshare explain --artifact FILE [--scan ID]
      Narrate a saved RunReport's decision provenance: per-scan causal
      stories (placement candidates vs threshold, throttle distance vs
      threshold, slowdown vs fairness cap) and per-group timelines.
      With --scan, only that scan's narrative.
  scanshare watch --spec FILE [--db FILE] [--tick-ms N] [--tail N]
                  [--no-clear]
      Execute a JSON RunSpec with a live ASCII dashboard: group
      topology, per-scan throttle state, pool-residency heatmap, and
      the decision tail, redrawn every N ms (--no-clear appends frames
      instead of clearing, for piped output).
  scanshare diff A.json B.json [--json]
      Structural diff of two saved RunReports: headline counter deltas
      (makespan, reads, seeks, hit ratio), per-query stretch movement
      matched by (stream, name, occurrence), sharing-group lifetimes
      that appeared/vanished/shifted, sampled-series endpoints, SLO
      verdict flips, fault-summary deltas, and the policy pair.
      Exits like cmp: 0 when structurally identical, 1 when the
      reports differ, 2 on unreadable input.
  scanshare generate [--scale S] [--seed X] --out FILE
      Generate the TPC-H-like database once and save it for reuse.
  scanshare spec-template
      Print an editable RunSpec JSON to stdout.
  scanshare help
      This text.
";

/// Print one run's headline numbers.
pub fn print_report(label: &str, r: &RunReport) {
    println!(
        "{label:<14} time {:>8.2}s  reads {:>9}  seeks {:>7}  hit {:>5.1}%  queries {}",
        r.makespan.as_secs_f64(),
        r.disk.pages_read,
        r.disk.seeks,
        r.pool.hit_ratio() * 100.0,
        r.queries.len()
    );
}

/// Print a base-vs-sharing comparison.
pub fn print_comparison(base: &RunReport, ss: &RunReport) {
    print_report("base", base);
    print_report("scan-sharing", ss);
    let gain = |b: f64, s: f64| if b > 0.0 { (1.0 - s / b) * 100.0 } else { 0.0 };
    println!(
        "{:<14} time {:>7.1}%   reads {:>7.1}%   seeks {:>6.1}%",
        "gain",
        gain(base.makespan.as_secs_f64(), ss.makespan.as_secs_f64()),
        gain(base.disk.pages_read as f64, ss.disk.pages_read as f64),
        gain(base.disk.seeks as f64, ss.disk.seeks as f64),
    );
}

fn force_mode(spec: &WorkloadSpec, mode: SharingMode) -> WorkloadSpec {
    WorkloadSpec {
        mode,
        ..spec.clone()
    }
}

/// Execute a parsed command. Returns a process exit code.
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            0
        }
        Command::SpecTemplate => {
            let spec = RunSpec::template();
            println!(
                "{}",
                serde_json::to_string_pretty(&spec).expect("spec serializes")
            );
            0
        }
        Command::Throughput {
            streams,
            scale,
            seed,
        } => {
            let tpch = TpchConfig {
                scale,
                seed,
                ..TpchConfig::default()
            };
            let db = generate(&tpch);
            let months = tpch.months as i64;
            let ss_spec = throughput_workload(
                &db,
                streams,
                months,
                seed,
                SharingMode::ScanSharing(SharingConfig::new(0)),
            );
            run_maybe_compare(&db, &ss_spec, true)
        }
        Command::Staggered {
            query,
            copies,
            scale,
            seed,
            stagger_frac,
        } => {
            let tpch = TpchConfig {
                scale,
                seed,
                ..TpchConfig::default()
            };
            let db = generate(&tpch);
            let q = if query == "q1" {
                q1()
            } else {
                q6(tpch.months as i64, seed)
            };
            // Calibrate the stagger from a solo run.
            let solo = staggered_workload(
                &db,
                &q,
                1,
                scanshare_storage::SimDuration::ZERO,
                SharingMode::Base,
            );
            let solo_run = run_workload(&db, &solo).expect("solo run");
            let stagger = scanshare_storage::SimDuration::from_micros(
                (solo_run.makespan.as_micros() as f64 * stagger_frac).max(1.0) as u64,
            );
            let ss_spec = staggered_workload(
                &db,
                &q,
                copies,
                stagger,
                SharingMode::ScanSharing(SharingConfig::new(0)),
            );
            run_maybe_compare(&db, &ss_spec, true)
        }
        Command::Run {
            spec,
            db,
            faults,
            compare,
            policy,
            delivery,
            outputs,
        } => {
            let text = match std::fs::read_to_string(&spec) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {spec}: {e}");
                    return 2;
                }
            };
            let mut parsed: RunSpec = match serde_json::from_str(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{}", spec_error(&spec, e));
                    return 2;
                }
            };
            if let Some(p) = policy {
                match &mut parsed.workload.mode {
                    SharingMode::ScanSharing(cfg) => cfg.policy = p,
                    SharingMode::Base | SharingMode::BasePolicy(_) if !compare => {
                        eprintln!(
                            "note: --policy {p} has no effect on a base-mode spec \
                             (add --compare or set the spec's mode to ScanSharing)"
                        );
                    }
                    SharingMode::Base | SharingMode::BasePolicy(_) => {}
                }
            }
            if let Some(d) = delivery {
                match &mut parsed.workload.mode {
                    SharingMode::ScanSharing(cfg) => cfg.delivery = d,
                    SharingMode::Base | SharingMode::BasePolicy(_) if !compare => {
                        eprintln!(
                            "note: --delivery {d} has no effect on a base-mode spec \
                             (add --compare or set the spec's mode to ScanSharing)"
                        );
                    }
                    SharingMode::Base | SharingMode::BasePolicy(_) => {}
                }
            }
            if let Some(path) = faults {
                match load_fault_config(&path) {
                    Ok(cfg) => parsed.workload.faults = cfg,
                    Err(e) => {
                        eprintln!("{e}");
                        return 2;
                    }
                }
            }
            let database = match db {
                Some(path) => match Database::load(&path) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("cannot load {path}: {e}");
                        return 2;
                    }
                },
                None => generate(&parsed.tpch),
            };
            run_maybe_compare_with(
                &database,
                &parsed.workload,
                compare,
                policy,
                delivery,
                &outputs,
            )
        }
        Command::Trace { artifact } => match load_artifact_trace(&artifact) {
            Ok(records) => {
                print!("{}", render::render_trace(&records));
                0
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        },
        Command::Metrics {
            artifact,
            quantiles,
        } => match load_report(&artifact) {
            Ok(report) => {
                print!("{}", render::render_metrics_detailed(&report, quantiles));
                0
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        },
        Command::Profile {
            artifact,
            smoke,
            collapse,
            top,
        } => {
            let summary = if let Some(path) = artifact {
                match load_report(&path) {
                    Ok(report) => match report.profile {
                        Some(s) => s,
                        None => {
                            eprintln!(
                                "{path} has no profile section — record one with \
                                 `scanshare run ... --profile-out trace.json --report {path}`"
                            );
                            return 2;
                        }
                    },
                    Err(e) => {
                        eprintln!("{e}");
                        return 2;
                    }
                }
            } else {
                // --smoke: record a fresh profile of a tiny built-in
                // comparison run, so the profiler can be exercised (and
                // CI can smoke-test it) without writing a spec.
                let tpch = TpchConfig::tiny();
                let db = generate(&tpch);
                let w = throughput_workload(
                    &db,
                    2,
                    tpch.months as i64,
                    tpch.seed,
                    SharingMode::ScanSharing(SharingConfig::new(0)),
                );
                let profiler = SpanProfiler::default();
                let hooks = RunHooks {
                    profiler: Some(profiler.clone()),
                    ..RunHooks::default()
                };
                debug_assert!(smoke, "parse_args requires --artifact or --smoke");
                if let Err(e) = run_workload_hooked(&db, &w, hooks) {
                    eprintln!("smoke run failed: {e}");
                    return 1;
                }
                profiler.summary()
            };
            if collapse {
                print!("{}", profile::render_collapsed(&summary));
            } else {
                print!("{}", profile::render_profile(&summary, top));
            }
            0
        }
        Command::Explain { artifact, scan } => {
            match load_report(&artifact).and_then(|report| explain::render_explain(&report, scan)) {
                Ok(text) => {
                    print!("{text}");
                    0
                }
                Err(e) => {
                    eprintln!("{e}");
                    2
                }
            }
        }
        Command::Watch {
            spec,
            db,
            tick_ms,
            tail,
            no_clear,
        } => {
            let text = match std::fs::read_to_string(&spec) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {spec}: {e}");
                    return 2;
                }
            };
            let parsed: RunSpec = match serde_json::from_str(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{}", spec_error(&spec, e));
                    return 2;
                }
            };
            let database = match db {
                Some(path) => match Database::load(&path) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("cannot load {path}: {e}");
                        return 2;
                    }
                },
                None => generate(&parsed.tpch),
            };
            let opts = watch::WatchOptions {
                tick_ms,
                clear: !no_clear,
                tail,
            };
            let mut stdout = std::io::stdout();
            match watch::run_watch(&database, &parsed.workload, &opts, &mut stdout) {
                Ok(r) => {
                    print_report("watched run", &r);
                    0
                }
                Err(e) => {
                    eprintln!("{e}");
                    1
                }
            }
        }
        Command::Diff { a, b, json } => {
            let ra = match load_report(&a) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            };
            let rb = match load_report(&b) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            };
            let d = diff::compute_diff(&ra, &rb);
            if json {
                // Keep stdout pure JSON; the one-line verdict goes to
                // stderr so `... --json | jq` just works.
                println!(
                    "{}",
                    serde_json::to_string_pretty(&d).expect("diff serializes")
                );
                eprintln!("{}", d.summary_line());
            } else {
                print!("{}", render::render_report_diff(&a, &b, &d));
                println!("{}", d.summary_line());
            }
            // Like cmp/diff: 0 identical, 1 different, 2 trouble.
            if d.is_zero() {
                0
            } else {
                1
            }
        }
        Command::Generate { scale, seed, out } => {
            let tpch = TpchConfig {
                scale,
                seed,
                ..TpchConfig::default()
            };
            let db = generate(&tpch);
            match db.save(&out) {
                Ok(()) => {
                    println!(
                        "saved {} tables / {} pages to {out}",
                        db.table_names().len(),
                        db.total_table_pages()
                    );
                    0
                }
                Err(e) => {
                    eprintln!("save failed: {e}");
                    1
                }
            }
        }
    }
}

/// Diagnostic for an unparsable `RunSpec` file. Besides the parser's own
/// message, it reminds the user of the spec shape — including the
/// optional `faults` fault-injection subsection, which predates some
/// hand-written specs and is the most common omission-then-typo site.
pub fn spec_error(path: &str, e: impl std::fmt::Display) -> String {
    format!(
        "invalid spec {path}: {e}\n\
         hint: a RunSpec is {{\"tpch\": ..., \"workload\": ...}}; the workload \
         accepts an optional \"faults\" section (seeded fault plan + \
         retry/timeout policy) — start from `scanshare spec-template`"
    )
}

/// Load a fault-injection plan (`FaultsConfig` JSON) for `run --faults`.
pub fn load_fault_config(path: &str) -> Result<FaultsConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("invalid fault plan {path}: {e}"))
}

/// Load a saved [`RunReport`] JSON artifact.
pub fn load_report(path: &str) -> Result<RunReport, String> {
    scanshare_engine::persist::load_report(path)
}

/// Load the trace of an artifact: either a [`RunReport`] JSON (the
/// embedded trace) or a raw JSON-lines file from `--trace-out`.
pub fn load_artifact_trace(path: &str) -> Result<Vec<scanshare_engine::TraceRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if let Ok(report) = serde_json::from_str::<RunReport>(&text) {
        return Ok(report.trace);
    }
    scanshare_engine::trace::records_from_jsonl(&text)
        .map_err(|e| format!("{path} is neither a RunReport nor a JSONL trace: {e}"))
}

fn run_measured(
    db: &Database,
    spec: &WorkloadSpec,
    outputs: &RunOutputs,
) -> Result<RunReport, String> {
    let profiler = outputs.profile.as_ref().map(|_| SpanProfiler::default());
    let hooks = RunHooks {
        tracer: outputs.any().then(|| Tracer::new(1 << 16)),
        profiler: profiler.clone(),
        ..RunHooks::default()
    };
    let mut r = run_workload_hooked(db, spec, hooks).map_err(|e| format!("run failed: {e}"))?;
    if let (Some(p), Some(path)) = (&profiler, &outputs.profile) {
        let json = serde_json::to_string(&p.perfetto()).expect("trace serializes");
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("profile saved to {path} (open at ui.perfetto.dev)");
        // The saved/printed report carries the folded summary too, so
        // `scanshare profile --artifact` can read it back.
        r.profile = Some(p.summary());
    }
    outputs.save(&r)?;
    Ok(r)
}

/// Print any SLO verdicts the run evaluated; returns 4 when at least
/// one rule was breached, 0 otherwise.
fn slo_exit(r: &RunReport) -> i32 {
    if r.slo.is_empty() {
        return 0;
    }
    let mut breached = 0;
    for v in &r.slo {
        let status = if v.passed { "PASS" } else { "FAIL" };
        let note = if v.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", v.note)
        };
        println!(
            "slo {status}  {:<16} {} {} {:.4}  observed {:.4}{note}",
            v.rule,
            v.metric,
            v.op.symbol(),
            v.threshold,
            v.observed,
        );
        breached += (!v.passed) as i32;
    }
    if breached > 0 {
        eprintln!("SLO breach: {breached} of {} rule(s) failed", r.slo.len());
        4
    } else {
        0
    }
}

fn run_maybe_compare(db: &Database, spec: &WorkloadSpec, compare: bool) -> i32 {
    run_maybe_compare_with(db, spec, compare, None, None, &RunOutputs::default())
}

/// Exit code for a completed run: 0 when every scan finished, 3 when a
/// permanent (or retry-exhausted) fault aborted at least one scan and the
/// run degraded to partial results.
fn degraded_exit(r: &RunReport) -> i32 {
    if r.faults.scans_aborted > 0 {
        eprintln!(
            "degraded run: {} scan(s) aborted by injected faults",
            r.faults.scans_aborted
        );
        3
    } else {
        0
    }
}

fn run_maybe_compare_with(
    db: &Database,
    spec: &WorkloadSpec,
    compare: bool,
    policy: Option<SharingPolicyKind>,
    delivery: Option<DeliveryMode>,
    outputs: &RunOutputs,
) -> i32 {
    if compare {
        let base = force_mode(spec, SharingMode::Base);
        let mut cfg = SharingConfig::with_policy(0, policy.unwrap_or_default());
        cfg.delivery = delivery.unwrap_or_default();
        let ss = force_mode(spec, SharingMode::ScanSharing(cfg));
        let rb = match run_workload(db, &base) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("base run failed: {e}");
                return 1;
            }
        };
        // Artifacts describe the measured (scan-sharing) side.
        let rs = match run_measured(db, &ss, outputs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("scan-sharing {e}");
                return 1;
            }
        };
        print_comparison(&rb, &rs);
        // Degradation (3) outranks an SLO breach (4): partial results
        // explain breached rules, so report the root cause.
        let degraded = degraded_exit(&rb).max(degraded_exit(&rs));
        let slo = slo_exit(&rb).max(slo_exit(&rs));
        if degraded != 0 {
            degraded
        } else {
            slo
        }
    } else {
        match run_measured(db, spec, outputs) {
            Ok(r) => {
                print_report("run", &r);
                let degraded = degraded_exit(&r);
                let slo = slo_exit(&r);
                if degraded != 0 {
                    degraded
                } else {
                    slo
                }
            }
            Err(e) => {
                eprintln!("{e}");
                1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_throughput_with_defaults() {
        let cmd = parse_args(&args("throughput")).unwrap();
        assert_eq!(
            cmd,
            Command::Throughput {
                streams: 3,
                scale: 0.5,
                seed: 42,
            }
        );
    }

    #[test]
    fn parses_throughput_flags() {
        let cmd = parse_args(&args("throughput --streams 5 --scale 0.1 --seed 7")).unwrap();
        assert_eq!(
            cmd,
            Command::Throughput {
                streams: 5,
                scale: 0.1,
                seed: 7,
            }
        );
    }

    #[test]
    fn parses_staggered() {
        let cmd = parse_args(&args("staggered --query q1 --copies 4 --stagger-frac 0.3")).unwrap();
        assert_eq!(
            cmd,
            Command::Staggered {
                query: "q1".into(),
                copies: 4,
                scale: 0.5,
                seed: 42,
                stagger_frac: 0.3
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("staggered --query q99")).is_err());
        assert!(parse_args(&args("throughput --streams nope")).is_err());
        assert!(parse_args(&args("run")).is_err());
        assert!(parse_args(&args("generate")).is_err());
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("trace")).is_err());
        assert!(parse_args(&args("metrics")).is_err());
        assert!(parse_args(&args("explain")).is_err());
        assert!(parse_args(&args("explain --artifact r.json --scan abc")).is_err());
        assert!(parse_args(&args("watch")).is_err());
        assert!(parse_args(&args("watch --spec s.json --tick-ms fast")).is_err());
    }

    #[test]
    fn parses_explain_and_watch() {
        assert_eq!(
            parse_args(&args("explain --artifact out.json")).unwrap(),
            Command::Explain {
                artifact: "out.json".into(),
                scan: None,
            }
        );
        assert_eq!(
            parse_args(&args("explain --artifact out.json --scan 3")).unwrap(),
            Command::Explain {
                artifact: "out.json".into(),
                scan: Some(3),
            }
        );
        assert_eq!(
            parse_args(&args(
                "watch --spec s.json --tick-ms 100 --tail 5 --no-clear"
            ))
            .unwrap(),
            Command::Watch {
                spec: "s.json".into(),
                db: None,
                tick_ms: 100,
                tail: 5,
                no_clear: true,
            }
        );
    }

    #[test]
    fn parses_run_outputs_and_replay_commands() {
        let cmd = parse_args(&args(
            "run --spec s.json --report out.json --trace-out t.jsonl",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                spec: "s.json".into(),
                db: None,
                faults: None,
                compare: false,
                policy: None,
                delivery: None,
                outputs: RunOutputs {
                    report: Some("out.json".into()),
                    trace: Some("t.jsonl".into()),
                    profile: None,
                },
            }
        );
        assert_eq!(
            parse_args(&args("run --spec s.json --faults plan.json")).unwrap(),
            Command::Run {
                spec: "s.json".into(),
                db: None,
                faults: Some("plan.json".into()),
                compare: false,
                policy: None,
                delivery: None,
                outputs: RunOutputs::default(),
            }
        );
        assert_eq!(
            parse_args(&args("trace --artifact out.json")).unwrap(),
            Command::Trace {
                artifact: "out.json".into()
            }
        );
        assert_eq!(
            parse_args(&args("metrics --artifact out.json")).unwrap(),
            Command::Metrics {
                artifact: "out.json".into(),
                quantiles: false,
            }
        );
    }

    #[test]
    fn saved_artifacts_replay_through_trace_and_metrics() {
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        let w = throughput_workload(
            &db,
            2,
            tpch.months as i64,
            tpch.seed,
            SharingMode::ScanSharing(SharingConfig::new(0)),
        );
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let report_path = dir.join(format!("scanshare_report_{pid}.json"));
        let trace_path = dir.join(format!("scanshare_trace_{pid}.jsonl"));
        let outputs = RunOutputs {
            report: Some(report_path.to_string_lossy().into_owned()),
            trace: Some(trace_path.to_string_lossy().into_owned()),
            profile: None,
        };
        assert_eq!(
            run_maybe_compare_with(&db, &w, false, None, None, &outputs),
            0
        );

        // The saved report replays: embedded trace matches the JSONL
        // side channel, and both renderers produce real output.
        let report = load_report(outputs.report.as_deref().unwrap()).unwrap();
        assert!(!report.trace.is_empty());
        let from_jsonl = load_artifact_trace(outputs.trace.as_deref().unwrap()).unwrap();
        let from_report = load_artifact_trace(outputs.report.as_deref().unwrap()).unwrap();
        assert_eq!(report.trace, from_jsonl);
        assert_eq!(report.trace, from_report);
        let trace_text = render::render_trace(&report.trace);
        assert!(trace_text.contains("scan lifecycles"));
        let metrics_text = render::render_metrics(&report);
        assert!(metrics_text.contains("histograms"));
        assert!(metrics_text.contains("disk.read_us"));
        // Sharing-mode artifacts carry decision provenance, so the saved
        // report explains itself too.
        assert!(!report.decisions.is_empty());
        let explained = explain::render_explain(&report, None).unwrap();
        assert!(explained.contains("decision summary"));
        assert!(explained.contains("narrative"));
        let first = explain::scans_mentioned(&report.decisions)[0];
        let one = explain::render_explain(&report, Some(first.0)).unwrap();
        assert!(one.contains(&format!("scan {} narrative", first.0)));
        std::fs::remove_file(&report_path).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn generate_then_run_from_saved_db() {
        let dir = std::env::temp_dir();
        let db_path = dir.join(format!("scanshare_cli_{}.db", std::process::id()));
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        db.save(&db_path).unwrap();
        let loaded = Database::load(&db_path).unwrap();
        std::fs::remove_file(&db_path).ok();
        let w = throughput_workload(&loaded, 1, tpch.months as i64, 1, SharingMode::Base);
        assert_eq!(run_maybe_compare(&loaded, &w, false), 0);
    }

    #[test]
    fn parses_run_policy_flag() {
        for (name, kind) in [
            ("grouping", SharingPolicyKind::Grouping),
            ("attach", SharingPolicyKind::Attach),
            ("elevator", SharingPolicyKind::Elevator),
        ] {
            match parse_args(&args(&format!("run --spec s.json --policy {name}"))).unwrap() {
                Command::Run { policy, .. } => assert_eq!(policy, Some(kind)),
                other => panic!("expected run command, got {other:?}"),
            }
        }
        let err = parse_args(&args("run --spec s.json --policy zigzag")).unwrap_err();
        assert!(err.0.contains("unknown policy 'zigzag'"), "got: {err}");
        assert!(
            err.0.contains("grouping, attach, or elevator"),
            "got: {err}"
        );
    }

    #[test]
    fn run_policy_selects_the_policy_end_to_end() {
        // --policy elevator on a sharing spec stamps the report.
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        let w = throughput_workload(
            &db,
            2,
            tpch.months as i64,
            tpch.seed,
            SharingMode::ScanSharing(SharingConfig::with_policy(0, SharingPolicyKind::Elevator)),
        );
        let dir = std::env::temp_dir();
        let report_path = dir.join(format!("scanshare_policy_cli_{}.json", std::process::id()));
        let outputs = RunOutputs {
            report: Some(report_path.to_string_lossy().into_owned()),
            trace: None,
            profile: None,
        };
        assert_eq!(
            run_maybe_compare_with(&db, &w, false, None, None, &outputs),
            0
        );
        let report = load_report(outputs.report.as_deref().unwrap()).unwrap();
        std::fs::remove_file(&report_path).ok();
        assert_eq!(report.policy, Some(SharingPolicyKind::Elevator));
        // The provenance log announces the non-default policy, so
        // `explain` narrates it.
        let text = explain::render_explain(&report, None).unwrap();
        assert!(
            text.contains("non-default 'elevator' sharing policy"),
            "got: {text}"
        );
    }

    #[test]
    fn usage_documents_policy_and_faults_sections() {
        // `run --help` must mention the --policy flag with all three
        // policies, and the spec's optional "faults" subsection.
        assert!(USAGE.contains("--policy grouping|attach|elevator"));
        assert!(USAGE.contains("\"faults\" subsection"));
        assert!(USAGE.contains("--delivery pull|push"));
    }

    #[test]
    fn parses_run_delivery_flag() {
        for (name, mode) in [("pull", DeliveryMode::Pull), ("push", DeliveryMode::Push)] {
            match parse_args(&args(&format!("run --spec s.json --delivery {name}"))).unwrap() {
                Command::Run { delivery, .. } => assert_eq!(delivery, Some(mode)),
                other => panic!("expected run command, got {other:?}"),
            }
        }
        match parse_args(&args("run --spec s.json")).unwrap() {
            Command::Run { delivery, .. } => assert_eq!(delivery, None),
            other => panic!("expected run command, got {other:?}"),
        }
        let err = parse_args(&args("run --spec s.json --delivery teleport")).unwrap_err();
        assert!(err.0.contains("unknown delivery 'teleport'"), "got: {err}");
    }

    #[test]
    fn run_delivery_selects_push_end_to_end() {
        // --delivery push on a sharing spec stamps the report's push
        // section; the explain narrative mentions the driver attaches.
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        let mut cfg = SharingConfig::new(0);
        cfg.delivery = DeliveryMode::Push;
        let w = throughput_workload(
            &db,
            2,
            tpch.months as i64,
            tpch.seed,
            SharingMode::ScanSharing(cfg),
        );
        let dir = std::env::temp_dir();
        let report_path = dir.join(format!("scanshare_push_cli_{}.json", std::process::id()));
        let outputs = RunOutputs {
            report: Some(report_path.to_string_lossy().into_owned()),
            trace: None,
            profile: None,
        };
        assert_eq!(
            run_maybe_compare_with(&db, &w, false, None, None, &outputs),
            0
        );
        let report = load_report(outputs.report.as_deref().unwrap()).unwrap();
        std::fs::remove_file(&report_path).ok();
        let ps = report.push.as_ref().expect("push section in the report");
        assert!(ps.drivers >= 1, "{ps:?}");
        assert!(ps.pages_delivered > 0, "{ps:?}");
        // The driver provenance survives the round trip and narrates.
        let text = explain::render_explain(&report, None).unwrap();
        assert!(text.contains("push driver"), "got: {text}");
    }

    #[test]
    fn spec_parse_diagnostic_mentions_the_faults_section() {
        let msg = spec_error("bad.json", "expected value at line 1");
        assert!(msg.contains("invalid spec bad.json"), "got: {msg}");
        assert!(msg.contains("optional \"faults\" section"), "got: {msg}");
        assert!(msg.contains("spec-template"), "got: {msg}");
    }

    #[test]
    fn parses_diff() {
        assert_eq!(
            parse_args(&args("diff a.json b.json --json")).unwrap(),
            Command::Diff {
                a: "a.json".into(),
                b: "b.json".into(),
                json: true,
            }
        );
        // diff wants exactly two positional files and no stray flags.
        assert!(parse_args(&args("diff a.json")).is_err());
        assert!(parse_args(&args("diff a.json b.json c.json")).is_err());
        assert!(parse_args(&args("diff a.json b.json --frob")).is_err());
    }

    #[test]
    fn usage_documents_diff() {
        assert!(USAGE.contains("scanshare diff A.json B.json"));
    }

    #[test]
    fn empty_and_help_yield_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn spec_template_roundtrips_through_json() {
        let spec = RunSpec::template();
        let json = serde_json::to_string(&spec).unwrap();
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tpch.scale, spec.tpch.scale);
        assert_eq!(back.workload.streams.len(), spec.workload.streams.len());
        assert_eq!(back.workload.pool_pages, spec.workload.pool_pages);
    }

    #[test]
    fn run_spec_executes_end_to_end() {
        // Tiny spec, run through the same path as the binary.
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        let workload =
            throughput_workload(&db, 1, tpch.months as i64, tpch.seed, SharingMode::Base);
        let code = run_maybe_compare(&db, &workload, true);
        assert_eq!(code, 0);
    }
}
