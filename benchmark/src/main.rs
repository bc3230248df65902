//! `scanshare-layerbench` — the repo's benchmark, declared in
//! `../BENCHMARK.json`. See `README.md` for what each number includes.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds T | --reps N] [--trace 0|1] [--quick]
//! cargo run ... -- --compare A.json B.json
//! ```
//!
//! Every metric is printed as `workload metric value unit`; the last
//! line of standard output is one JSON object (with `--workload`: the
//! object the benchmark contract asks for; without: one such object per
//! workload under `"workloads"`), also written to `out/results.json`.
//! Without `--trace` both halves run: end-to-end first (tracing off),
//! then the traced round with the per-layer metrics.

mod compare;
mod layers;
mod metrics;
mod reference;
mod run;
mod trace;
mod verify;
mod workloads;

use std::path::PathBuf;

use run::{Options, Outcome, Session};
use serde::{Map, Number, Value};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: scanshare-layerbench [--workload NAME] [--seed S] \
[--seconds T | --reps N] [--trace 0|1] [--quick] | --compare A.json B.json";

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// The benchmark's own directory (`cargo run` sets the variable; the
/// compile-time value serves a directly invoked binary).
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn workload_named(name: &str) -> &'static Workload {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'")))
}

fn outcome_json(o: &Outcome) -> Value {
    let mut metrics = Map::new();
    for x in &o.metrics {
        let mut one = Map::new();
        one.insert("value", Value::Number(Number::F64(x.value)));
        one.insert("unit", Value::String(x.unit.to_string()));
        metrics.insert(x.name.clone(), Value::Object(one));
    }
    let mut obj = Map::new();
    obj.insert("correct", Value::Bool(o.failed == 0));
    obj.insert("attempted", Value::Number(Number::U64(o.attempted)));
    obj.insert("failed", Value::Number(Number::U64(o.failed)));
    obj.insert("metrics", Value::Object(metrics));
    Value::Object(obj)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        seed: 42,
        seconds: 10.0,
        reps: None,
        quick: false,
    };
    let mut only: Option<&'static Workload> = None;
    let mut trace: Option<bool> = None;
    let mut rss_probe: Option<&'static Workload> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .as_str()
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("invalid {flag} '{v}'")))
        }
        match flag.as_str() {
            "--workload" => only = Some(workload_named(value())),
            "--seed" => opts.seed = num(flag, value()),
            "--seconds" => opts.seconds = num(flag, value()),
            "--reps" => opts.reps = Some(num(flag, value())),
            "--trace" => {
                trace = Some(match value() {
                    "0" => false,
                    "1" => true,
                    v => usage(&format!("invalid --trace '{v}'")),
                })
            }
            "--quick" => opts.quick = true,
            "--rss-probe" => rss_probe = Some(workload_named(value())),
            "--compare" => {
                let (a, b) = (value().to_string(), value().to_string());
                std::process::exit(compare::run(&a, &b));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if let Some(w) = rss_probe {
        return run::rss_probe(w, &opts);
    }

    let selected: Vec<&Workload> = match only {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let sessions: Vec<Session<'_>> = selected.iter().map(|w| Session::set_up(w, &opts)).collect();

    let mut outcomes: Vec<Outcome> = sessions.iter().map(Session::outcome).collect();
    if trace != Some(true) {
        run::end_to_end(&sessions, &opts, &mut outcomes);
    }
    if trace != Some(false) {
        // The table-backed drives share one auxiliary database, the
        // same for every workload.
        let aux_cfg = workloads::tpch_config(0.25, opts.seed, opts.quick);
        let aux = scanshare_tpch::generate(&aux_cfg);
        let mut rec = trace::Recorder::on();
        for (s, o) in sessions.iter().zip(&mut outcomes) {
            run::layers(s, &opts, &mut rec, &aux, o);
        }
        let path = bench_dir().join("out/trace.json");
        if let Err(e) = rec.write(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    for (s, o) in sessions.iter().zip(&outcomes) {
        let name = s.workload.name;
        for x in &o.metrics {
            println!("{name} {} {} {}", x.name, x.value, x.unit);
        }
        println!(
            "{name} failed_share {} ratio",
            o.failed as f64 / o.attempted as f64
        );
    }
    let result = match (only, outcomes.as_slice()) {
        (Some(_), [o]) => outcome_json(o),
        _ => {
            let mut by_name = Map::new();
            for (s, o) in sessions.iter().zip(&outcomes) {
                by_name.insert(s.workload.name, outcome_json(o));
            }
            let mut obj = Map::new();
            obj.insert("seed", Value::Number(Number::U64(opts.seed)));
            obj.insert("workloads", Value::Object(by_name));
            Value::Object(obj)
        }
    };
    let line = serde_json::to_string(&result).expect("values serialize");
    let path = bench_dir().join("out/results.json");
    if let Err(e) = std::fs::create_dir_all(path.parent().expect("has parent"))
        .and_then(|()| std::fs::write(&path, &line))
    {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("{line}");
    if outcomes.iter().any(|o| o.failed > 0) {
        eprintln!("benchmark failed: some queries answered differently from the base run");
        std::process::exit(1);
    }
}
