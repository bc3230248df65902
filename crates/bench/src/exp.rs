//! One runner over one experiment table.
//!
//! The paper's evaluation is a single table of (workload, variant) runs
//! read through different columns: Table 1 and Figures 17–20 are five
//! readings of the same base/scan-sharing 5-stream pair. [`TABLE`] says
//! so in data — one [`Experiment`] per table, figure or ablation, giving
//! how its workload variants are built, how their [`RunReport`]s project
//! onto the row's JSON, and the [`Claim`]s the row reproduces — and
//! [`run`] is the only loop: build the variants, execute the ones no
//! earlier row already ran, project, print, check the claims, and write
//! JSON only when asked to. `exp list` prints the table: it is the
//! experiment index DESIGN.md §4, README.md and EXPERIMENTS.md point at.

mod table;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::ops::Deref;
use std::path::Path;
use std::rc::Rc;

use scanshare_engine::{par_map, run_workload, Database, RunReport, WorkloadSpec};
use scanshare_tpch::{generate, TpchConfig};
use serde::{Serialize, Value};

pub use table::TABLE;

/// Label of a row's no-sharing variant.
pub const BASE: &str = "base";
/// Label of a row's full scan-sharing variant.
pub const SS: &str = "scan-sharing";

/// One row of the experiment table.
pub struct Experiment {
    /// What `exp <id>` runs.
    pub id: &'static str,
    /// The paper artifact (`Table 1`) or this repo's ablation (`A3`).
    pub artifact: &'static str,
    /// One line saying what is measured.
    pub title: &'static str,
    /// What the paper reports — or, marked `(ours)`, what this repo's
    /// design predicts for an ablation the paper does not have. The
    /// row's claims are this sentence made checkable.
    pub paper: &'static str,
    /// File name of the row's JSON under `results/` (or `--out DIR`).
    pub file: &'static str,
    /// Whether `exp all` runs the row.
    pub in_all: bool,
    /// The workload variants the row compares, in the order `project`
    /// expects them; may run calibration variants through the context.
    pub specs: fn(&mut Ctx) -> Vec<Variant>,
    /// Projects the variants' reports onto the row's serialized struct
    /// and the facts its claims are about.
    pub project: fn(&[Run]) -> Output,
    /// What the row is expected to show, checked on every run.
    pub claims: &'static [Claim],
}

/// How a fact compares to its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmp {
    /// fact ≤ bound
    Le,
    /// fact > bound
    Gt,
    /// fact ≥ bound
    Ge,
    /// fact = bound, exactly
    Eq,
}

/// One checked statement about a row's output: `fact cmp bound`.
pub struct Claim {
    /// A top-level numeric field of the row's JSON, or a fact its
    /// projection derives from the serialized rows.
    pub fact: &'static str,
    /// Direction of the comparison.
    pub cmp: Cmp,
    /// The band's edge.
    pub bound: f64,
    /// Where the simulator does not reach the paper's magnitude: the
    /// bound is what it does reach, and the difference is recorded here
    /// instead of being hidden in a loose band.
    pub gap: Option<&'static str>,
    /// Asserted at this database scale and above; below, printed but
    /// not checked. 0 = at every scale.
    pub from_scale: f64,
}

/// `fact cmp bound`, asserted at every scale, no gap.
pub const fn claim(fact: &'static str, cmp: Cmp, bound: f64) -> Claim {
    Claim {
        fact,
        cmp,
        bound,
        gap: None,
        from_scale: 0.0,
    }
}

impl Claim {
    /// Record where the simulator falls short of the paper's figure.
    pub const fn gap(mut self, note: &'static str) -> Claim {
        self.gap = Some(note);
        self
    }

    /// Assert the claim from this database scale up only.
    pub const fn from_scale(mut self, scale: f64) -> Claim {
        self.from_scale = scale;
        self
    }
}

/// One workload variant of a row: a labelled spec over a database.
pub struct Variant {
    label: String,
    db: Rc<Database>,
    spec: WorkloadSpec,
}

impl Variant {
    /// `spec` over `db`, shown and logged as `label`.
    pub fn new(label: impl Into<String>, db: &Rc<Database>, spec: WorkloadSpec) -> Variant {
        Variant {
            label: label.into(),
            db: db.clone(),
            spec,
        }
    }

    /// Edit the spec in place (an engine switch).
    pub fn with(mut self, edit: impl FnOnce(&mut WorkloadSpec)) -> Variant {
        edit(&mut self.spec);
        self
    }

    /// Memo key. Sound because `run_workload` is a pure function of the
    /// database and the spec (the benchmark's determinism self-check
    /// asserts it on every run), and the context keeps every database
    /// alive, so an address names one database for the whole process.
    fn key(&self) -> String {
        let spec = serde_json::to_string(&self.spec).expect("spec serializes");
        format!("{:p} {spec}", Rc::as_ptr(&self.db))
    }
}

/// The report of one variant; dereferences to the [`RunReport`].
pub struct Run {
    /// The variant's label.
    pub label: String,
    report: Rc<RunReport>,
}

impl Deref for Run {
    type Target = RunReport;
    fn deref(&self) -> &RunReport {
        &self.report
    }
}

/// What a row's projection returns.
pub struct Output {
    /// The row's serialized struct: what `--out` writes and the table
    /// renderer prints.
    pub json: Value,
    facts: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

impl Output {
    /// Serialize `row` through its `#[derive(Serialize)]` struct — the
    /// struct is the JSON schema, field order included.
    pub fn new(row: &impl Serialize) -> Output {
        Output {
            json: row.to_json_value(),
            facts: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a fact derived from the serialized rows (a minimum over a
    /// column, the difference of two fields) for claims to name.
    pub fn fact(mut self, name: &'static str, value: f64) -> Output {
        self.facts.push((name, value));
        self
    }

    /// Add a line printed under the table (the ASCII series).
    pub fn note(mut self, line: String) -> Output {
        self.notes.push(line);
        self
    }

    /// A derived fact, or else a top-level numeric field of the JSON.
    pub fn get(&self, name: &str) -> Option<f64> {
        let derived = self.facts.iter().find(|(n, _)| *n == name);
        derived
            .map(|&(_, v)| v)
            .or_else(|| self.json.get(name)?.as_f64())
    }
}

/// Everything an invocation reads from outside — scale, seed, jobs and
/// the metrics sink, handed over as values by `main` — plus the memo
/// that lets rows share databases and runs.
pub struct Ctx {
    /// The experiment database's configuration (`SCANSHARE_SCALE`,
    /// `SCANSHARE_SEED`; months and block size are the paper's).
    pub cfg: TpchConfig,
    jobs: usize,
    metrics_out: Option<String>,
    /// Id of the row being run: labels sink lines.
    current: &'static str,
    /// Prefix sink labels with the row id (several rows, one file).
    prefix_labels: bool,
    dbs: HashMap<String, Rc<Database>>,
    runs: HashMap<String, Rc<RunReport>>,
    hits: usize,
}

impl Ctx {
    /// A context for one invocation. `jobs` worker threads fan out a
    /// row's independent variants (reports are bit-identical for any
    /// count). The metrics sink is truncated here, once, so each
    /// invocation starts a fresh log.
    pub fn new(cfg: TpchConfig, jobs: usize, metrics_out: Option<String>) -> Result<Ctx, String> {
        if let Some(path) = &metrics_out {
            std::fs::write(path, "")
                .map_err(|e| format!("cannot open metrics sink {path}: {e}"))?;
        }
        Ok(Ctx {
            cfg,
            jobs,
            metrics_out,
            current: "",
            prefix_labels: false,
            dbs: HashMap::new(),
            runs: HashMap::new(),
            hits: 0,
        })
    }

    /// The database `build` makes, built once per `key`.
    pub fn db(&mut self, key: &str, build: impl FnOnce() -> Database) -> Rc<Database> {
        if !self.dbs.contains_key(key) {
            eprintln!("building database: {key} ...");
            let db = build();
            eprintln!("  {:?}, {} pages", db.table_names(), db.total_table_pages());
            self.dbs.insert(key.to_string(), Rc::new(db));
        }
        self.dbs[key].clone()
    }

    /// The TPC-H-like database for `cfg`, generated once per config.
    pub fn tpch(&mut self, cfg: &TpchConfig) -> Rc<Database> {
        let key = format!("TPC-H-like {cfg:?}");
        self.db(&key, || generate(cfg))
    }

    /// The database at the experiment scale and seed.
    pub fn exp_db(&mut self) -> Rc<Database> {
        let cfg = self.cfg.clone();
        self.tpch(&cfg)
    }

    /// Reports for `variants`, in order. A variant an earlier row (or an
    /// earlier variant) already ran is served from the memo; the rest
    /// fan out over the worker threads. Each executed run is appended to
    /// the metrics sink under its first reader's label.
    pub fn run_all(&mut self, variants: Vec<Variant>) -> Vec<Run> {
        let keys: Vec<String> = variants.iter().map(Variant::key).collect();
        let mut todo: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if self.runs.contains_key(key) || todo.iter().any(|&j| keys[j] == *key) {
                self.hits += 1;
            } else {
                todo.push(i);
            }
        }
        let work: Vec<(&Database, &WorkloadSpec)> = todo
            .iter()
            .map(|&i| (&*variants[i].db, &variants[i].spec))
            .collect();
        let reports = par_map(self.jobs, &work, |_, (db, spec)| run_workload(db, spec));
        for (&i, report) in todo.iter().zip(reports) {
            let label = &variants[i].label;
            // Specs are built by the table, not read from outside: a run
            // that fails is a bug in a row.
            let report = report.unwrap_or_else(|e| panic!("{}/{label}: {e}", self.current));
            eprintln!(
                "[{}] {label}: makespan {} ({} pages read, {} seeks)",
                self.current, report.makespan, report.disk.pages_read, report.disk.seeks
            );
            self.record_metrics(label, &report);
            self.runs.insert(keys[i].clone(), Rc::new(report));
        }
        std::iter::zip(variants, &keys)
            .map(|(v, key)| Run {
                label: v.label,
                report: self.runs[key].clone(),
            })
            .collect()
    }

    /// Append one labeled metrics snapshot to the `--metrics-out` sink
    /// (a no-op when none is configured).
    fn record_metrics(&self, label: &str, report: &RunReport) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        #[derive(Serialize)]
        struct Line {
            label: String,
            makespan_us: u64,
            metrics: scanshare::MetricsSnapshot,
        }
        let line = Line {
            label: match self.prefix_labels {
                true => format!("{}/{label}", self.current),
                false => label.to_string(),
            },
            makespan_us: report.makespan.as_micros(),
            metrics: report.metrics.clone(),
        };
        let json = serde_json::to_string(&line).expect("metrics snapshot serializes");
        let sink = std::fs::OpenOptions::new().append(true).open(path);
        match sink.and_then(|mut f| writeln!(f, "{json}")) {
            Ok(()) => eprintln!("  metrics[{}] appended to {path}", line.label),
            Err(e) => eprintln!("cannot append to metrics sink {path}: {e}"),
        }
    }
}

/// The row with this id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    TABLE.iter().find(|e| e.id == id)
}

/// The index, as `exp list` prints it: id, artifact, claim count, output
/// file and title of every row.
pub fn list() -> String {
    let mut rows = vec![["id", "artifact", "claims", "file", "title"]
        .map(String::from)
        .to_vec()];
    for e in TABLE {
        let by_name = if e.in_all {
            ""
        } else {
            " (by name only, not in `all`)"
        };
        let title = format!("{}{by_name}", e.title);
        let claims = e.claims.len().to_string();
        rows.push(
            [e.id, e.artifact, claims.as_str(), e.file, title.as_str()]
                .map(String::from)
                .to_vec(),
        );
    }
    grid(&rows)
}

/// Run `rows` in order: print each row's table and claim verdicts to
/// stdout, and write its JSON under `out` if given. Returns the process
/// exit status: 0, 1 if any claim was violated (each is named on
/// stderr), 2 if a file could not be written.
pub fn run(ctx: &mut Ctx, rows: &[&Experiment], out: Option<&Path>) -> i32 {
    ctx.prefix_labels = rows.len() > 1;
    let mut violated = 0;
    for e in rows {
        ctx.current = e.id;
        let variants = (e.specs)(ctx);
        let runs = ctx.run_all(variants);
        let output = (e.project)(&runs);
        println!("\n== {} — {}: {} ==", e.id, e.artifact, e.title);
        println!("paper: {}", e.paper);
        print!("{}", render(&output.json));
        for line in &output.notes {
            println!("{line}");
        }
        violated += check(e, &output, ctx.cfg.scale);
        if let Some(dir) = out {
            let path = dir.join(e.file);
            let json = serde_json::to_string_pretty(&output.json).expect("JSON value prints");
            if let Err(err) = std::fs::write(&path, json) {
                eprintln!("exp: cannot write {}: {err}", path.display());
                return 2;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    println!(
        "\n{} experiment(s), {violated} claim(s) violated; {} distinct run(s) executed, {} served from the memo",
        rows.len(),
        ctx.runs.len(),
        ctx.hits
    );
    i32::from(violated > 0)
}

/// Print each claim of `e` with its verdict; returns how many are
/// violated. A claim naming a fact the row does not emit is violated.
fn check(e: &Experiment, output: &Output, scale: f64) -> usize {
    let mut violated = 0;
    for c in e.claims {
        let fact = output.get(c.fact);
        let (op, holds): (_, fn(&f64, &f64) -> bool) = match c.cmp {
            Cmp::Le => ("<=", f64::le),
            Cmp::Gt => (">", f64::gt),
            Cmp::Ge => (">=", f64::ge),
            Cmp::Eq => ("==", f64::eq),
        };
        let holds = fact.is_some_and(|f| holds(&f, &c.bound));
        let value = fact.map_or_else(|| "(no such fact)".to_string(), number);
        let text = format!("{} = {value} (claimed {op} {})", c.fact, number(c.bound));
        let asserted = scale >= c.from_scale;
        let verdict = match (holds, asserted) {
            (true, _) => "ok",
            (false, true) => "VIOLATED",
            (false, false) => "n/a",
        };
        print!("  claim {verdict:<8} {text}");
        if !asserted {
            print!(" (asserted from scale {})", c.from_scale);
        }
        if let Some(gap) = c.gap {
            print!(" gap: {gap}");
        }
        println!();
        if !holds && asserted {
            eprintln!("exp: claim violated: {} ({}): {text}", e.id, e.artifact);
            violated += 1;
        }
    }
    violated
}

/// A number the way the tables print it: integers bare, fractions to
/// about four significant digits.
fn number(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

fn cell(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        Value::Number(serde::Number::F64(x)) => number(*x),
        other => serde_json::to_string(other).expect("JSON value prints"),
    }
}

/// `rows` as aligned text, one line each. A column whose cells below
/// the first row are all numbers is flush right, any other flush left.
fn grid(rows: &[Vec<String>]) -> String {
    let layout = |c: usize| {
        let column = || rows.iter().filter_map(move |r| r.get(c));
        let width = column().map(|s| s.chars().count()).max().unwrap_or(0);
        (width, column().skip(1).all(|s| s.parse::<f64>().is_ok()))
    };
    let columns = rows.iter().map(Vec::len).max().unwrap_or(0);
    let layout: Vec<(usize, bool)> = (0..columns).map(layout).collect();
    let mut out = String::new();
    for row in rows {
        let mut line = String::new();
        for (text, &(w, right)) in row.iter().zip(&layout) {
            match right {
                true => write!(line, "{text:>w$}  "),
                false => write!(line, "{text:<w$}  "),
            }
            .expect("write to string");
        }
        writeln!(out, "{}", line.trim_end()).expect("write to string");
    }
    out
}

/// An array of JSON objects as a table: one column per key of the first.
fn object_table(items: &[Value]) -> String {
    let Some(first) = items.first().and_then(Value::as_object) else {
        return String::new();
    };
    let keys: Vec<&str> = first.iter().map(|(k, _)| k).collect();
    let mut rows = vec![keys.iter().map(|k| k.to_string()).collect::<Vec<_>>()];
    for item in items {
        let cells = keys.iter().map(|k| item.get(k).map_or(String::new(), cell));
        rows.push(cells.collect());
    }
    grid(&rows)
}

/// Render a row's JSON as text — the one table renderer, so every number
/// on stdout is a number `--out` would write. An array of objects is a
/// table; in an object, a scalar or an array of scalars (a series, a
/// per-run vector, a tuple) is one `key values…` line, and an array of
/// objects is a table under its key.
pub fn render(json: &Value) -> String {
    let Value::Object(map) = json else {
        return object_table(json.as_array().unwrap_or_default());
    };
    let is_table = |v: &Value| {
        v.as_array()
            .is_some_and(|a| a.iter().all(|i| i.as_object().is_some()))
    };
    let mut lines = Vec::new();
    let mut tables = String::new();
    for (key, v) in map.iter() {
        if is_table(v) {
            let items = v.as_array().unwrap_or_default();
            write!(tables, "{key}:\n{}", object_table(items)).expect("write to string");
        } else {
            let values = v.as_array().unwrap_or_else(|| std::slice::from_ref(v));
            let cells = values.iter().map(cell);
            lines.push(std::iter::once(key.to_string()).chain(cells).collect());
        }
    }
    grid(&lines) + &tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Row {
        name: String,
        gain_pct: f64,
        pages: u64,
    }

    #[derive(Serialize)]
    struct Mixed {
        total: u64,
        ratio: f64,
        series: Vec<u64>,
        tuple: (f64, f64),
        rows: Vec<Row>,
    }

    fn mixed() -> Mixed {
        Mixed {
            total: 12,
            ratio: 1.0684,
            series: vec![3, 40, 5],
            tuple: (0.5, 55.8),
            rows: vec![row("r0", 42.7, 1)],
        }
    }

    fn row(name: &str, gain_pct: f64, pages: u64) -> Row {
        Row {
            name: name.into(),
            gain_pct,
            pages,
        }
    }

    #[test]
    fn arrays_of_objects_render_as_one_aligned_table() {
        let rows = vec![row("base", 0.0, 158141), row("all (full SS)", 23.7012, 7)];
        assert_eq!(
            render(&rows.to_json_value()),
            "name           gain_pct   pages\n\
             base                  0  158141\n\
             all (full SS)     23.70       7\n"
        );
    }

    #[test]
    fn objects_render_scalars_and_vectors_as_lines_then_tables() {
        assert_eq!(
            render(&mixed().to_json_value()),
            "total      12\n\
             ratio   1.068\n\
             series      3     40  5\n\
             tuple   0.500  55.80\n\
             rows:\n\
             name  gain_pct  pages\n\
             r0       42.70      1\n"
        );
    }

    #[test]
    fn facts_resolve_derived_first_then_top_level_fields() {
        let out = Output::new(&mixed()).fact("min_gain", 4.3);
        assert_eq!(out.get("min_gain"), Some(4.3));
        assert_eq!(out.get("total"), Some(12.0));
        assert_eq!(out.get("series"), None);
        assert_eq!(out.get("nope"), None);
    }

    #[test]
    fn a_claim_on_a_missing_fact_or_past_its_bound_is_violated_from_its_scale_up() {
        static ROW: Experiment = Experiment {
            id: "t",
            artifact: "T",
            title: "test row",
            paper: "nothing",
            file: "t.json",
            in_all: false,
            specs: |_| Vec::new(),
            project: |_| Output::new(&0u64),
            claims: &[
                claim("total", Cmp::Eq, 12.0),
                claim("ratio", Cmp::Gt, 2.0),
                claim("nope", Cmp::Ge, 0.0),
                claim("ratio", Cmp::Le, 1.0).from_scale(1.0),
            ],
        };
        let out = Output::new(&mixed());
        assert_eq!(check(&ROW, &out, 0.2), 2);
        assert_eq!(check(&ROW, &out, 1.0), 3);
    }
}
