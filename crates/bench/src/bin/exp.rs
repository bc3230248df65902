//! The experiment runner: every table, figure and ablation of
//! `scanshare_bench::exp::TABLE` from one binary.
//!
//! ```sh
//! exp list                          # the index: id, artifact, claims
//! exp table1                        # run one row, print its table
//! exp all --out results             # run every row, write results/*.json
//! SCANSHARE_SCALE=0.1 exp streams_push --out results
//! exp fig15 --metrics-out m.jsonl   # also append each run's metrics
//! ```
//!
//! Environment: `SCANSHARE_SCALE` (default 1.0), `SCANSHARE_SEED` (42)
//! and `SCANSHARE_JOBS` (1). Exit codes: 0 = every claim holds, 1 = a claim
//! is violated, 2 = usage or I/O error.

use std::path::PathBuf;

use scanshare_bench::exp::{self, Ctx, Experiment, TABLE};
use scanshare_tpch::TpchConfig;

/// `NAME` from the environment, parsed; `default` when unset.
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> Result<T, String> {
    match std::env::var(name) {
        Ok(text) => text
            .parse()
            .map_err(|_| format!("{name}='{text}' is not a valid value")),
        Err(_) => Ok(default),
    }
}

/// Everything this process reads from outside, read once.
fn parse(args: &[String]) -> Result<(Ctx, Vec<&'static Experiment>, Option<PathBuf>), String> {
    let mut rows: Vec<&'static Experiment> = Vec::new();
    let mut out = None;
    let mut metrics_out = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value()?)),
            "--metrics-out" => metrics_out = Some(value()?),
            "all" => rows.extend(TABLE.iter().filter(|e| e.in_all)),
            id => rows.push(exp::find(id).ok_or_else(|| format!("unknown experiment '{id}'"))?),
        }
    }
    if rows.is_empty() {
        return Err("no experiment named".to_string());
    }
    let cfg = TpchConfig {
        scale: env_or("SCANSHARE_SCALE", 1.0)?,
        seed: env_or("SCANSHARE_SEED", 42)?,
        ..TpchConfig::default()
    };
    if !(cfg.scale > 0.0 && cfg.scale.is_finite()) {
        return Err(format!("SCANSHARE_SCALE={} is not positive", cfg.scale));
    }
    let jobs = env_or("SCANSHARE_JOBS", 1)?;
    // Nothing is created or truncated before every input has parsed.
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --out {}: {e}", dir.display()))?;
    }
    let ctx = Ctx::new(cfg, jobs, metrics_out)?;
    Ok((ctx, rows, out))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        print!("{}", exp::list());
        return;
    }
    let status = match parse(&args) {
        Ok((mut ctx, rows, out)) => exp::run(&mut ctx, &rows, out.as_deref()),
        Err(problem) => {
            let ids: Vec<&str> = TABLE.iter().map(|e| e.id).collect();
            eprintln!(
                "exp: {problem}; usage: exp list | all | <id>... [--out DIR] [--metrics-out FILE]; ids: {}",
                ids.join(" ")
            );
            2
        }
    };
    std::process::exit(status);
}
