//! Library half of the `scanshare` command-line driver.
//!
//! The CLI runs scan-sharing comparisons without writing any Rust. A run
//! is its spec: the database is generated from the spec's `tpch` section
//! and the workload is its `workload` section.
//!
//! ```sh
//! scanshare spec-template > myrun.json              # editable spec
//! scanshare run --spec myrun.json --compare         # base vs sharing
//! scanshare exp table1                              # a paper artifact
//! ```
//!
//! Each subcommand is one row of [`COMMANDS`]: its positionals, its
//! flags, its help prose and its handler. [`parse`] checks a command line
//! against that row, `help` is generated from the table and [`dispatch`]
//! runs the handler, so a flag the table lacks is rejected, never ignored.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

use scanshare::{SharingConfig, SpanProfiler};
use scanshare_bench::exp;
use scanshare_engine::{
    run_workload, run_workload_hooked, Database, FaultsConfig, RunHooks, RunReport, SharingMode,
    WorkloadSpec,
};
use scanshare_tpch::{generate, throughput_workload, TpchConfig};
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

/// Whether a command needs one of its flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Need {
    /// May be left out.
    Optional,
    /// Must be given.
    Required,
}

/// One flag of a command.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed: `--name`.
    pub name: &'static str,
    /// Placeholder of its value in the help (`FILE`, `pull|push`); `None`
    /// for a switch.
    pub value: Option<&'static str>,
    /// Whether the command needs it.
    need: Need,
}

impl Flag {
    /// `--name VALUE`, or `--name` for a switch.
    fn spelled(&self) -> String {
        match self.value {
            Some(v) => format!("{} {v}", self.name),
            None => self.name.to_string(),
        }
    }
}

const fn opt(name: &'static str, value: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        need: Need::Optional,
    }
}

const fn req(name: &'static str, value: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        need: Need::Required,
    }
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        need: Need::Optional,
    }
}

/// One subcommand: everything the parser, `help` and dispatch know of it.
#[derive(Debug)]
pub struct Cmd {
    /// The subcommand as typed.
    pub name: &'static str,
    /// Placeholders of its positional arguments, every one required.
    pub positionals: &'static [&'static str],
    /// Every flag it accepts.
    pub flags: &'static [Flag],
    /// What it does, printed under its synopsis.
    about: &'static str,
    /// Runs it; `Ok` holds the exit code.
    run: fn(&Args) -> Result<i32, CliError>,
}

/// Every subcommand, in the order `help` lists them.
#[rustfmt::skip]
pub const COMMANDS: &[Cmd] = &[
    Cmd { name: "run", positionals: &[], run: cmd_run,
        flags: &[req("--spec", "FILE"), opt("--faults", "FILE"), switch("--compare"),
                 opt("--report", "OUT"), opt("--profile-out", "OUT")],
        about: "\
Execute a JSON RunSpec (`scanshare spec-template` shows the shape): the
database is generated from its \"tpch\" section, the workload is its
\"workload\" section; its \"mode\" names the sharing configuration
(ScanSharing's \"placement\": FromStart, Practical, Optimal, AlwaysAttach,
Attach or Elevator; the \"enable_throttling\" and \"enable_priorities\"
switches; \"fairness_cap\", a fraction in [0, 1]; and
\"delivery\": Pull or Push). The workload may carry an optional \"faults\"
subsection (a FaultsConfig: seeded fault plan plus retry/timeout policy)
and an optional \"slo\" subsection of service-level rules (e.g.
{\"name\": \"fair\", \"metric\": \"p99_stretch\", \"op\": \"<=\", \"value\":
1.5}) evaluated at the end of the run into pass/fail verdicts in the
report. The paper's throughput and staggered setups are rows of
`scanshare exp` (table1, fig15, fig16).
--faults replaces the spec's \"faults\" subsection with a FaultsConfig
JSON file; --compare runs base against the spec's sharing configuration
(the default one for a base-mode spec);
--report saves the full RunReport (metrics + decision log) as JSON, and
--profile-out saves a hierarchical span profile as Chrome trace-event
JSON (open at ui.perfetto.dev; one track per scan stream plus manager
and driver tracks) and embeds its summary in the report for
`scanshare profile`.
Exits 0 on success, 1 on engine failure, 2 on bad input, 3 when
injected faults aborted at least one scan (degraded run), and 4 when
the run completed but breached at least one SLO rule.",
    },
    Cmd { name: "trace", positionals: &[], run: cmd_trace,
        flags: &[req("--artifact", "FILE")],
        about: "\
Replay the decision log of a saved RunReport: scan lifecycles — query,
placement, wraps, attributed throttle waits, end — then their events in
order.",
    },
    Cmd { name: "metrics", positionals: &[], run: cmd_metrics,
        flags: &[req("--artifact", "FILE"), switch("--quantiles")],
        about: "\
Render a saved RunReport's metrics snapshot: counters, latency
histograms, and per-group/per-scan timelines as text tables.
--quantiles expands every histogram with p50/p90/p95/p99 rows and its
full bucket table (inclusive upper bounds).",
    },
    Cmd { name: "profile", positionals: &[], run: cmd_profile,
        flags: &[req("--artifact", "FILE"), switch("--collapse"), opt("--top", "N")],
        about: "\
Render the self-profiler summary in a report a profiled `scanshare run`
saved: per-phase inclusive/exclusive times on both clocks
(deterministic virtual µs, host wall ns) and the N hottest spans.
--collapse instead prints flamegraph-folded stacks (`phase;child
µs` per line) for flamegraph.pl or speedscope.",
    },
    Cmd { name: "explain", positionals: &[], run: cmd_explain,
        flags: &[req("--artifact", "FILE"), opt("--scan", "ID")],
        about: "\
Narrate a saved RunReport's decision provenance: per-scan causal
stories (placement candidates vs threshold, throttle distance vs
threshold, slowdown vs fairness cap) and per-group timelines.
With --scan, only that scan's narrative.",
    },
    Cmd { name: "watch", positionals: &[], run: cmd_watch,
        flags: &[req("--spec", "FILE"), opt("--tick-ms", "N"), opt("--tail", "N"),
                 switch("--no-clear")],
        about: "\
Execute a JSON RunSpec with a live ASCII dashboard: group topology,
per-scan throttle state, pool-residency heatmap, and the decision tail.
Each frame of the run is drawn at most once, frames within N ms of wall
time of the last draw are skipped, and the closing frame is always
drawn; --tick-ms 0 draws every frame (--no-clear appends frames instead
of clearing, for piped output).",
    },
    Cmd { name: "diff", positionals: &["A.json", "B.json"], run: cmd_diff,
        flags: &[switch("--json")],
        about: "\
Structural diff of two saved RunReports: headline counter deltas
(makespan, reads, seeks, hit ratio), per-query stretch movement
matched by (stream, name, occurrence), sharing-group lifetimes that
appeared/vanished/shifted, sampled-series endpoints, SLO verdict
flips, fault-summary deltas, and the policy pair. --json prints the
same as JSON. Exits like cmp: 0 when structurally identical, 1 when
the reports differ, 2 on unreadable input.",
    },
    Cmd { name: "exp", positionals: &["ROWS"], run: cmd_exp,
        flags: &[opt("--out", "DIR"), opt("--scale", "X"), opt("--seed", "N")],
        about: "\
Run rows of the experiment table: the paper's tables and figures and
this repo's ablations. ROWS is `list` (print the index: id, artifact,
claims, file, title), `all` (every row not marked by-name-only) or row
ids separated by commas. Each row prints its table and checks the
claims it carries; --out writes each row's JSON into DIR (created if
missing), and nothing is written without it. --scale X (default 1.0)
and --seed N (default 42) set the database; row smoke ignores both.
Exits 0 when every claim holds, 1 when one is violated, 2 on bad input
or an unwritable DIR.",
    },
    Cmd { name: "spec-template", positionals: &[], flags: &[], run: cmd_spec_template,
        about: "Print an editable RunSpec JSON to stdout.",
    },
    Cmd { name: "help", positionals: &[], flags: &[], run: cmd_help,
        about: "This text.",
    },
];

impl Cmd {
    /// The synopsis — `scanshare NAME POSITIONALS FLAGS`, wrapped under
    /// the first argument — with the prose indented under it.
    fn help(&self) -> String {
        let mut items: Vec<String> = self.positionals.iter().map(|p| p.to_string()).collect();
        items.extend(self.flags.iter().map(|f| match f.need {
            Need::Required => f.spelled(),
            Need::Optional => format!("[{}]", f.spelled()),
        }));
        let mut out = format!("  scanshare {}", self.name);
        let indent = out.len() + 1;
        for item in items {
            let width = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
            if width + 1 + item.len() > 76 {
                out += &format!("\n{:indent$}{item}", "");
            } else {
                out += &format!(" {item}");
            }
        }
        for line in self.about.lines() {
            out += &format!("\n      {line}");
        }
        out
    }
}

/// The `help` text: every row of [`COMMANDS`].
fn usage() -> String {
    let helps: Vec<String> = COMMANDS.iter().map(Cmd::help).collect();
    format!(
        "scanshare — scan-sharing reproduction driver\n\nUSAGE:\n{}",
        helps.join("\n")
    )
}

/// Why a command failed: the diagnostic for stderr and the exit code.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    /// Process exit code.
    pub code: i32,
    /// What to print on stderr.
    pub message: String,
}

impl CliError {
    /// A bad command line: exit 2, one `error:` line naming the command,
    /// then its usage.
    fn usage(cmd: &Cmd, what: impl Display) -> Self {
        let message = format!("error: {}: {what}\n\n{}", cmd.name, cmd.help());
        CliError { code: 2, message }
    }
}

/// Bad input — an unreadable or malformed file: exit 2.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 2, message }
    }
}

/// An engine or output failure: exit 1.
fn fail(message: String) -> CliError {
    CliError { code: 1, message }
}

/// A command line [`parse`] accepted.
#[derive(Debug)]
pub struct Args {
    /// The command's row of [`COMMANDS`].
    cmd: &'static Cmd,
    /// Its positional arguments, exactly as many as the row names.
    positionals: Vec<String>,
    /// The flags given, each once, with their values.
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    /// The value given for `flag`, if it was.
    fn value(&self, flag: &str) -> Option<&str> {
        self.given(flag).flatten()
    }

    /// `flag`'s value as a `T`, if given; one that does not parse is a
    /// usage error.
    fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        let Some(v) = self.value(flag) else {
            return Ok(None);
        };
        let bad = |e: T::Err| CliError::usage(self.cmd, format!("{flag} '{v}': {e}"));
        v.parse().map(Some).map_err(bad)
    }

    /// A [`Need::Required`] flag's value, which [`parse`] made sure of.
    fn required(&self, flag: &str) -> &str {
        self.value(flag).expect("parse enforces required flags")
    }

    fn given(&self, flag: &str) -> Option<Option<&str>> {
        debug_assert!(
            self.cmd.flags.iter().any(|f| f.name == flag),
            "`{}` has no flag {flag}",
            self.cmd.name
        );
        let given = self.given.iter().find(|(name, _)| *name == flag);
        given.map(|(_, v)| v.as_deref())
    }
}

/// Check a full argument vector (without the program name) against its
/// command's row of [`COMMANDS`]: no unknown or repeated flag, a value for
/// every value flag, the row's positionals and needed flags, nothing else.
/// No command (or `--help`, `-h`) is `help`.
pub fn parse(argv: &[String]) -> Result<Args, CliError> {
    let name = match argv.first().map(String::as_str) {
        None | Some("--help" | "-h") => "help",
        Some(name) => name,
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        let message = format!("error: unknown command '{name}'\n\n{}", usage());
        return Err(CliError { code: 2, message });
    };
    let bad = |what: String| Err(CliError::usage(cmd, what));
    let mut args = Args {
        cmd,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut rest = argv.iter().skip(1);
    while let Some(arg) = rest.next() {
        let Some(flag) = cmd.flags.iter().find(|f| f.name == arg) else {
            if arg.starts_with("--") {
                return bad(format!("unknown flag {arg}"));
            } else if args.positionals.len() == cmd.positionals.len() {
                return bad(format!("unexpected argument '{arg}'"));
            }
            args.positionals.push(arg.clone());
            continue;
        };
        if args.has(flag.name) {
            return bad(format!("{arg} given twice"));
        }
        let value = match flag.value {
            None => None,
            Some(placeholder) => match rest.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                _ => return bad(format!("{arg} needs a value ({placeholder})")),
            },
        };
        args.given.push((flag.name, value));
    }
    if args.positionals.len() < cmd.positionals.len() {
        return bad(format!("expected {}", cmd.positionals.join(" ")));
    }
    let missing = cmd
        .flags
        .iter()
        .find(|f| f.need == Need::Required && !args.has(f.name));
    if let Some(f) = missing {
        return bad(format!("missing {}", f.spelled()));
    }
    Ok(args)
}

/// Parse `argv` (without the program name) and run its command; returns
/// the process exit code, after printing the diagnostic of a failure.
pub fn dispatch(argv: &[String]) -> i32 {
    match parse(argv).and_then(|args| (args.cmd.run)(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{}", e.message);
            e.code
        }
    }
}

fn cmd_help(_: &Args) -> Result<i32, CliError> {
    println!("{}", usage());
    Ok(0)
}

fn cmd_spec_template(_: &Args) -> Result<i32, CliError> {
    let spec = serde_json::to_string_pretty(&RunSpec::template()).expect("spec serializes");
    println!("{spec}");
    Ok(0)
}

/// Why `tpch`'s database cannot be generated, if it cannot: a scale that
/// is not a finite number above 0, or one that leaves a table without
/// rows. `run`, `watch` and `exp` ask before generating anything.
fn scale_problem(tpch: &TpchConfig) -> Option<String> {
    let scale = tpch.scale;
    if !(scale.is_finite() && scale > 0.0) {
        return Some(format!("must be a finite number above 0, not {scale}"));
    }
    let rows = [
        ("lineitem", tpch.lineitem_rows()),
        ("orders", tpch.orders_rows()),
        ("part", tpch.part_rows()),
        ("customer", tpch.customer_rows()),
    ];
    let (table, _) = rows.iter().find(|(_, n)| *n == 0)?;
    Some(format!("{scale} leaves table {table} without rows"))
}

/// The `--spec` file, its fault plan replaced by the `faults` file if
/// given, and the database generated from its `tpch` section. Every file
/// is read and every size checked before the generator runs.
fn load_spec_and_db(args: &Args, faults: Option<&str>) -> Result<(RunSpec, Database), CliError> {
    let path = args.required("--spec");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec: RunSpec = serde_json::from_str(&text).map_err(|e| spec_error(path, e))?;
    if let Some(path) = faults {
        spec.workload.faults = load_fault_config(path)?;
    }
    let tpch = &spec.tpch;
    let invalid = |e: &dyn Display| format!("invalid spec {path}: {e}");
    let sizes = [
        ("tpch.block_pages", tpch.block_pages as u64),
        ("tpch.months", tpch.months as u64),
    ];
    spec.workload.check_sizes(&sizes).map_err(|e| invalid(&e))?;
    if let Some(problem) = scale_problem(tpch) {
        return Err(invalid(&format!("tpch.scale {problem}")).into());
    }
    let db = generate(tpch);
    Ok((spec, db))
}

fn cmd_run(args: &Args) -> Result<i32, CliError> {
    let (spec, db) = load_spec_and_db(args, args.value("--faults"))?;
    let outputs = RunOutputs {
        report: args.value("--report").map(String::from),
        profile: args.value("--profile-out").map(String::from),
    };
    let compare = args.has("--compare");
    run_and_print(&db, &spec.workload, compare, &outputs)
}

fn cmd_trace(args: &Args) -> Result<i32, CliError> {
    let records = load_report(args.required("--artifact"))?.decisions;
    print!("{}", scanshare::decision::render_lifecycles(&records));
    Ok(0)
}

fn cmd_metrics(args: &Args) -> Result<i32, CliError> {
    let report = load_report(args.required("--artifact"))?;
    let quantiles = args.has("--quantiles");
    print!("{}", render::render_metrics_detailed(&report, quantiles));
    Ok(0)
}

fn cmd_profile(args: &Args) -> Result<i32, CliError> {
    let top = args.parsed("--top")?.unwrap_or(10);
    let path = args.required("--artifact");
    let summary = load_report(path)?.profile.ok_or_else(|| {
        format!(
            "{path} has no profile section — record one with \
             `scanshare run ... --profile-out trace.json --report {path}`"
        )
    })?;
    if args.has("--collapse") {
        print!("{}", profile::render_collapsed(&summary));
    } else {
        print!("{}", profile::render_profile(&summary, top));
    }
    Ok(0)
}

fn cmd_explain(args: &Args) -> Result<i32, CliError> {
    let scan = args.parsed("--scan")?;
    let report = load_report(args.required("--artifact"))?;
    print!("{}", explain::render_explain(&report, scan)?);
    Ok(0)
}

fn cmd_watch(args: &Args) -> Result<i32, CliError> {
    let opts = watch::WatchOptions {
        tick_ms: args.parsed("--tick-ms")?.unwrap_or(250),
        clear: !args.has("--no-clear"),
        tail: args.parsed("--tail")?.unwrap_or(8),
    };
    let (spec, db) = load_spec_and_db(args, None)?;
    let r = watch::run_watch(&db, &spec.workload, &opts, &mut std::io::stdout()).map_err(fail)?;
    print_report("watched run", &r);
    Ok(0)
}

fn cmd_exp(args: &Args) -> Result<i32, CliError> {
    let rows = args.positionals[0].as_str();
    if rows == "list" {
        if let Some((flag, _)) = args.given.first() {
            return Err(CliError::usage(args.cmd, format!("list takes no {flag}")));
        }
        print!("{}", exp::list());
        return Ok(0);
    }
    let mut picked = Vec::new();
    for id in rows.split(',') {
        if id == "all" {
            picked.extend(exp::TABLE.iter().filter(|e| e.in_all));
            continue;
        }
        let Some(row) = exp::find(id) else {
            let ids: Vec<&str> = exp::TABLE.iter().map(|e| e.id).collect();
            let what = format!("unknown experiment '{id}'; ids: {}", ids.join(" "));
            return Err(CliError::usage(args.cmd, what));
        };
        picked.push(row);
    }
    let defaults = TpchConfig::default();
    let cfg = TpchConfig {
        scale: args.parsed("--scale")?.unwrap_or(defaults.scale),
        seed: args.parsed("--seed")?.unwrap_or(defaults.seed),
        ..defaults
    };
    if let Some(problem) = scale_problem(&cfg) {
        return Err(format!("error: exp: --scale {problem}").into());
    }
    // Nothing is created before every input has been checked.
    let out = args.value("--out").map(Path::new);
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("error: exp: cannot create --out {}: {e}", dir.display()))?;
    }
    Ok(exp::run(&mut exp::Ctx::new(cfg), &picked, out))
}

fn cmd_diff(args: &Args) -> Result<i32, CliError> {
    let [a, b] = [&args.positionals[0], &args.positionals[1]];
    let d = diff::compute_diff(&load_report(a)?, &load_report(b)?);
    if args.has("--json") {
        // Keep stdout pure JSON; the one-line verdict goes to stderr so
        // `... --json | jq` just works.
        let json = serde_json::to_string_pretty(&d).expect("diff serializes");
        println!("{json}");
        eprintln!("{}", d.summary_line());
    } else {
        print!("{}", render::render_report_diff(a, b, &d));
        println!("{}", d.summary_line());
    }
    // Like cmp/diff: 0 identical, 1 different, 2 trouble.
    Ok(if d.is_zero() { 0 } else { 1 })
}

/// Where `run` saves the measured run's artifacts (the scan-sharing side
/// under `--compare`), if anywhere. A sharing run always keeps its
/// decision log, so the saved report replays through `trace` and
/// `explain` without anything attached for the purpose.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutputs {
    /// `--report OUT`: full [`RunReport`] as JSON.
    pub report: Option<String>,
    /// `--profile-out OUT`: span profile as Chrome trace-event JSON
    /// (open at ui.perfetto.dev). Also embeds the folded
    /// [`scanshare::ProfileSummary`] into the report.
    pub profile: Option<String>,
}

impl RunOutputs {
    fn save(&self, r: &RunReport) -> Result<(), String> {
        if let Some(path) = &self.report {
            scanshare_engine::persist::save_report(r, path)?;
            eprintln!("report saved to {path}");
        }
        Ok(())
    }
}

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

fn run_measured(
    db: &Database,
    spec: &WorkloadSpec,
    outputs: &RunOutputs,
) -> Result<RunReport, String> {
    let profiler = outputs.profile.as_ref().map(|_| SpanProfiler::default());
    let hooks = RunHooks {
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

/// Exit code for completed runs: 3 when a permanent (or retry-exhausted)
/// fault aborted a scan of any of them and the run degraded to partial
/// results, else 4 when an SLO rule was breached, else 0. Degradation
/// outranks the breach: partial results explain breached rules, so
/// report the root cause.
fn exit_code(runs: &[&RunReport]) -> i32 {
    let aborted: Vec<u64> = runs.iter().map(|r| r.faults.scans_aborted).collect();
    for n in aborted.iter().filter(|&&n| n > 0) {
        eprintln!("degraded run: {n} scan(s) aborted by injected faults");
    }
    let slo = runs.iter().map(|r| slo_exit(r)).max().unwrap_or(0);
    if aborted.iter().any(|&n| n > 0) {
        3
    } else {
        slo
    }
}

/// Run `spec` — under `compare`, a base run and a sharing run of it — and
/// print the headline numbers. The sharing run measures the spec's own
/// configuration (the default one when `compare` meets a base-mode spec);
/// `outputs` describe that run.
fn run_and_print(
    db: &Database,
    spec: &WorkloadSpec,
    compare: bool,
    outputs: &RunOutputs,
) -> Result<i32, CliError> {
    let measured = match spec.mode {
        SharingMode::Base | SharingMode::BasePolicy(_) if compare => {
            force_mode(spec, SharingMode::ScanSharing(SharingConfig::new(0)))
        }
        _ => spec.clone(),
    };
    if !compare {
        let r = run_measured(db, &measured, outputs).map_err(fail)?;
        print_report("run", &r);
        return Ok(exit_code(&[&r]));
    }
    let base = force_mode(spec, SharingMode::Base);
    let rb = run_workload(db, &base).map_err(|e| fail(format!("base run failed: {e}")))?;
    // Artifacts describe the measured (scan-sharing) side.
    let rs = run_measured(db, &measured, outputs).map_err(|e| fail(format!("scan-sharing {e}")))?;
    print_comparison(&rb, &rs);
    Ok(exit_code(&[&rb, &rs]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare::{DeliveryMode, Placement};
    use scanshare_storage::SimDuration;
    use scanshare_tpch::{q1, staggered_workload};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parsed(s: &str) -> Args {
        parse(&args(s)).unwrap_or_else(|e| panic!("{s}: {}", e.message))
    }

    #[test]
    fn parses_watch_with_defaults() {
        let a = parsed("watch --spec s.json");
        assert_eq!(a.cmd.name, "watch");
        assert_eq!(a.parsed::<usize>("--tail").unwrap(), None);
        assert!(!a.has("--tick-ms") && !a.has("--no-clear"));
    }

    #[test]
    fn parses_watch_flags() {
        let a = parsed("watch --spec s.json --tail 4 --tick-ms 30");
        assert_eq!(a.value("--spec"), Some("s.json"));
        assert_eq!(a.parsed("--tail").unwrap(), Some(4usize));
        assert_eq!(a.parsed("--tick-ms").unwrap(), Some(30u64));
        assert!(!a.has("--no-clear"));
    }

    #[test]
    fn rejects_bad_input() {
        // Each is refused with exit 2 by the parser or the handler's value
        // check, naming the bad flag or value — not by a later failure to
        // read `r.json` or `s.json`, neither of which exists.
        let refused = |s: &str, named: &str| {
            let e = parse(&args(s)).and_then(|a| (a.cmd.run)(&a)).unwrap_err();
            assert_eq!(e.code, 2, "{s}: {}", e.message);
            assert!(e.message.contains(named), "{s}: {}", e.message);
        };
        refused("watch --spec s.json --tail nope", "--tail 'nope'");
        refused("run", "missing --spec");
        refused("run --spec s.json --db f.db", "unknown flag --db");
        refused("watch --spec s.json --db f.db", "unknown flag --db");
        for retired in ["generate", "throughput", "staggered", "frobnicate"] {
            refused(retired, &format!("unknown command '{retired}'"));
        }
        refused("trace", "missing --artifact");
        refused("metrics", "missing --artifact");
        refused("explain", "missing --artifact");
        refused("explain --artifact r.json --scan abc", "--scan 'abc'");
        refused("watch", "missing --spec");
        refused("watch --spec s.json --tick-ms fast", "--tick-ms 'fast'");
    }

    #[test]
    fn parses_explain_and_watch() {
        let a = parsed("explain --artifact out.json");
        assert_eq!(a.value("--artifact"), Some("out.json"));
        assert_eq!(a.parsed::<u64>("--scan").unwrap(), None);
        let a = parsed("explain --artifact out.json --scan 3");
        assert_eq!(a.parsed("--scan").unwrap(), Some(3u64));
        let a = parsed("watch --spec s.json --tick-ms 100 --tail 5 --no-clear");
        assert_eq!(a.value("--spec"), Some("s.json"));
        assert_eq!(a.parsed("--tick-ms").unwrap(), Some(100u64));
        assert_eq!(a.parsed("--tail").unwrap(), Some(5usize));
        assert!(a.has("--no-clear"));
    }

    #[test]
    fn parses_run_outputs_and_replay_commands() {
        let a = parsed("run --spec s.json --report out.json");
        assert_eq!(a.value("--spec"), Some("s.json"));
        assert_eq!(a.value("--report"), Some("out.json"));
        for absent in ["--faults", "--profile-out"] {
            assert_eq!(a.value(absent), None, "{absent}");
        }
        assert!(!a.has("--compare"));
        let a = parsed("run --spec s.json --faults plan.json");
        assert_eq!(a.value("--faults"), Some("plan.json"));
        assert_eq!(
            parsed("trace --artifact out.json").value("--artifact"),
            Some("out.json")
        );
        let a = parsed("metrics --artifact out.json");
        assert_eq!(a.value("--artifact"), Some("out.json"));
        assert!(!a.has("--quantiles"));
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
        let outputs = RunOutputs {
            report: Some(report_path.to_string_lossy().into_owned()),
            profile: None,
        };
        assert_eq!(run_and_print(&db, &w, false, &outputs), Ok(0));

        // The saved report replays: both renderers produce real output.
        let report = load_report(outputs.report.as_deref().unwrap()).unwrap();
        assert!(!report.decisions.is_empty());
        let trace_text = scanshare::decision::render_lifecycles(&report.decisions);
        assert!(trace_text.contains("scan lifecycles"));
        let metrics_text = render::render_metrics(&report);
        assert!(metrics_text.contains("histograms"));
        assert!(metrics_text.contains("disk.read_us"));
        // The same log explains the run.
        let explained = explain::render_explain(&report, None).unwrap();
        assert!(explained.contains("decision summary"));
        assert!(explained.contains("narrative"));
        let first = explain::scans_mentioned(&report.decisions)[0];
        let one = explain::render_explain(&report, Some(first.0)).unwrap();
        assert!(one.contains(&format!("scan {} narrative", first.0)));
        std::fs::remove_file(&report_path).ok();
    }

    #[test]
    fn the_specs_policy_stamps_the_report() {
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        let w = throughput_workload(
            &db,
            2,
            tpch.months as i64,
            tpch.seed,
            SharingMode::ScanSharing(SharingConfig::baseline(0, Placement::Elevator)),
        );
        let dir = std::env::temp_dir();
        let report_path = dir.join(format!("scanshare_policy_cli_{}.json", std::process::id()));
        let outputs = RunOutputs {
            report: Some(report_path.to_string_lossy().into_owned()),
            profile: None,
        };
        assert_eq!(run_and_print(&db, &w, false, &outputs), Ok(0));
        let report = load_report(outputs.report.as_deref().unwrap()).unwrap();
        std::fs::remove_file(&report_path).ok();
        assert_eq!(report.policy, Some(Placement::Elevator));
        // The provenance log announces the non-default policy, so
        // `explain` narrates it.
        let text = explain::render_explain(&report, None).unwrap();
        assert!(
            text.contains("non-default 'elevator' sharing policy"),
            "got: {text}"
        );
    }

    #[test]
    fn usage_documents_the_specs_mode_and_faults_sections() {
        // `help` names where a run's placement and delivery are set, and
        // the spec's optional "faults" subsection.
        let usage = usage();
        assert!(usage.contains("\"placement\": FromStart, Practical, Optimal, AlwaysAttach,"));
        assert!(usage.contains("Attach or Elevator; the \"enable_throttling\""));
        assert!(usage.contains("\"delivery\": Pull or Push"));
        assert!(usage.contains("\"faults\" subsection"));
    }

    #[test]
    fn the_specs_push_delivery_stamps_the_report() {
        // A push spec's report has a push section; the explain narrative
        // mentions the driver attaches.
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
            profile: None,
        };
        assert_eq!(run_and_print(&db, &w, false, &outputs), Ok(0));
        let report = load_report(outputs.report.as_deref().unwrap()).unwrap();
        std::fs::remove_file(&report_path).ok();
        let ps = report.push.as_ref().expect("push section in the report");
        assert!(ps.drivers >= 1, "{ps:?}");
        assert!(ps.pages_delivered > 0, "{ps:?}");
        // The driver provenance survives the round trip and narrates.
        let text = explain::render_explain(&report, None).unwrap();
        assert!(text.contains("push driver"), "got: {text}");
    }

    /// `run --compare` measures the spec's own sharing configuration, not
    /// the default one: a push spec's compared report has a push section,
    /// and a spec with throttling off injects no wait.
    #[test]
    fn compare_keeps_the_specs_sharing_configuration() {
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        let compared = |edit: fn(&mut SharingConfig), tag: &str| {
            let mut cfg = SharingConfig::new(0);
            edit(&mut cfg);
            let sharing = SharingMode::ScanSharing(cfg);
            let w = staggered_workload(&db, &q1(), 3, SimDuration::from_millis(10), sharing);
            let path = std::env::temp_dir().join(format!(
                "scanshare_compare_{tag}_{}.json",
                std::process::id()
            ));
            let outputs = RunOutputs {
                report: Some(path.to_string_lossy().into_owned()),
                ..RunOutputs::default()
            };
            assert_eq!(run_and_print(&db, &w, true, &outputs), Ok(0));
            let report = load_report(outputs.report.as_deref().unwrap()).unwrap();
            std::fs::remove_file(&path).ok();
            report
        };
        let push = compared(|c| c.delivery = DeliveryMode::Push, "push");
        let ps = push.push.expect("push section in the compared report");
        assert!(ps.drivers >= 1 && ps.pages_delivered > 0, "{ps:?}");
        // The default configuration throttles these three close Q1 copies,
        // so the throttling-off run's zero is the spec's doing.
        assert!(compared(|_| {}, "default").sharing.waits_injected > 0);
        let unthrottled = compared(|c| c.enable_throttling = false, "nothrottle");
        assert_eq!(unthrottled.sharing.waits_injected, 0);
        assert!(unthrottled.push.is_none());
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
        let a = parsed("diff a.json b.json --json");
        assert_eq!(a.positionals, ["a.json", "b.json"]);
        assert!(a.has("--json"));
        // diff wants exactly two positional files and no stray flags.
        assert!(parse(&args("diff a.json")).is_err());
        assert!(parse(&args("diff a.json b.json c.json")).is_err());
        assert!(parse(&args("diff a.json b.json --frob")).is_err());
    }

    #[test]
    fn usage_documents_diff() {
        assert!(usage().contains("scanshare diff A.json B.json"));
    }

    #[test]
    fn empty_and_help_yield_help() {
        assert_eq!(parse(&[]).unwrap().cmd.name, "help");
        assert_eq!(parsed("--help").cmd.name, "help");
        assert_eq!(parsed("-h").cmd.name, "help");
    }

    /// The help is generated from the table, so it cannot leave a flag
    /// out; its hand-written prose must not name another command's flag.
    #[test]
    fn help_lists_every_flag_and_no_other() {
        let usage = usage();
        for cmd in COMMANDS {
            let help = cmd.help();
            assert!(usage.contains(&help), "{}", cmd.name);
            let words: Vec<&str> = help
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .collect();
            for f in cmd.flags {
                assert!(
                    words.contains(&f.name),
                    "{}: {} not in\n{help}",
                    cmd.name,
                    f.name
                );
            }
            for word in words.iter().filter(|w| w.starts_with("--")) {
                assert!(
                    cmd.flags.iter().any(|f| f.name == *word),
                    "{}'s help names {word}, which is not its flag",
                    cmd.name
                );
            }
        }
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COMMANDS.len(), "a command is listed twice");
    }

    #[test]
    fn spec_template_roundtrips_through_json() {
        let spec = RunSpec::template();
        let json = serde_json::to_string(&spec).unwrap();
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tpch.scale, spec.tpch.scale);
        assert_eq!(back.workload.streams.len(), spec.workload.streams.len());
        assert_eq!(back.workload.pool_pages, spec.workload.pool_pages);
        // A template written before `delivery` existed loads to this one.
        let pre_push = json.replace(",\"delivery\":\"Pull\"", "");
        assert_ne!(pre_push, json);
        let old: RunSpec = serde_json::from_str(&pre_push).unwrap();
        assert_eq!(serde_json::to_string(&old).unwrap(), json);
        // The sharing section says each mechanism once and nothing a run
        // fills in itself.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let mode = ["workload", "mode", "ScanSharing"]
            .iter()
            .try_fold(&v, |v, k| v.get(k))
            .and_then(serde_json::Value::as_object)
            .expect("the template spec shares scans");
        let fields: Vec<&str> = mode.iter().map(|(k, _)| k).collect();
        assert_eq!(
            fields,
            [
                "placement",
                "enable_throttling",
                "enable_priorities",
                "fairness_cap",
                "dynamic_fairness",
                "delivery"
            ]
        );
    }

    #[test]
    fn run_spec_executes_end_to_end() {
        // Tiny spec, run through the same path as the binary.
        let tpch = TpchConfig::tiny();
        let db = generate(&tpch);
        let workload =
            throughput_workload(&db, 1, tpch.months as i64, tpch.seed, SharingMode::Base);
        let code = run_and_print(&db, &workload, true, &RunOutputs::default());
        assert_eq!(code, Ok(0));
    }
}
