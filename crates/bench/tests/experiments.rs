//! The experiment table against the 20 per-experiment binaries it
//! replaced, and against itself.
//!
//! `PARENT_DIGESTS` holds the FNV-1a digest of every `exp all` row's
//! JSON at scale 0.05, seeds 42 and 7. The constants were computed by the
//! parent commit's `exp_<id>` binaries before any line of the runner
//! existed (this file's first version spawned them from a `git archive`
//! build with `SCANSHARE_SCALE=0.05 SCANSHARE_SEED=…` and hashed the
//! `results/<file>` each wrote) and have not been edited since: a row
//! that moves by one byte fails by name. `streams_push` shares `streams`'
//! row code and differs only in its constant stream list (minutes of
//! runtime), so `streams`' digests cover it. `smoke` is the exception:
//! the row did not exist before ISSUE 23, which computed its digest
//! itself, after showing its pull and push legs equal to the last digit
//! the `value`s of the two baseline files the row replaced; it ignores
//! scale and seed, so the digest is also that of `results/smoke.json`.
//! After a *deliberate* behaviour change, regenerate the constants from
//! the table this test's failure message prints — and `results/` with
//! them.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use scanshare_bench::exp::{self, claim, Cmp, Ctx, Experiment, Output, TABLE};
use scanshare_tpch::TpchConfig;

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// (id, digest at seed 42, digest at seed 7), scale 0.05.
const PARENT_DIGESTS: [(&str, u64, u64); 21] = [
    ("table1", 0x4d7f3f0023294b16, 0xd38ed1f75b740c35),
    ("fig15", 0x389b25cc79bcfc2b, 0x66638d7c946b8d44),
    ("fig16", 0x8084733e7af89990, 0x97ea734aa3fcb203),
    ("fig17", 0x76f5f8adbf50a3dc, 0xa771a01926bc9b94),
    ("fig18", 0x9081859da40459d5, 0x6d0a695fd06f8026),
    ("fig19", 0x0ef06ce7dadada6e, 0xd643074e4fe0d839),
    ("fig20", 0xbce053a24223804c, 0x0368ffa88e506be7),
    ("fig8_9", 0x11b61f6565dbd4fa, 0x11b61f6565dbd4fa),
    ("overhead", 0x6be9e925055efd79, 0x85daed2dc6d42d9a),
    ("ablation", 0x69ca8aa9d4ed3672, 0x1985b9aed114154a),
    ("scope", 0xaf2dfcff49489ac0, 0x5d5c15b6dc583148),
    ("fairness", 0xa8d2e7535f862ddb, 0x48f8685024cde466),
    ("placement", 0x687d8086c77e5c00, 0x7dd67ec4c7e8b0fb),
    ("policies", 0x29e68b545b08d774, 0x12fd63e45017d0fa),
    ("smoke", 0xd7ee0679d9ec132f, 0xd7ee0679d9ec132f),
    ("policy", 0xde8d1c2c56efff29, 0xf7e42c603e300e8c),
    ("prefetch", 0xc44b478f49c555eb, 0xcf0f194ce14daf42),
    ("rid", 0xcb8bf5965cbe414c, 0xcb8bf5965cbe414c),
    ("streams", 0x14972314ab2095e0, 0x19085b41af3ffcd0),
    ("attach", 0x2027f68a68553348, 0x14e49bd918068f68),
    ("disks", 0x5ca5a17c1f71325e, 0xf23bf1f4a0eece62),
];

fn ctx(seed: u64) -> Ctx {
    let cfg = TpchConfig {
        scale: 0.05,
        seed,
        ..TpchConfig::default()
    };
    Ctx::new(cfg, 1, None).expect("no sink to open")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scanshare_exp_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn all_rows() -> Vec<&'static Experiment> {
    TABLE.iter().filter(|e| e.in_all).collect()
}

#[test]
fn every_row_writes_the_bytes_its_parent_binary_wrote_and_emits_the_facts_it_claims() {
    let rows = all_rows();
    let mut table = String::new();
    let mut moved = Vec::new();
    let mut digests = vec![[0u64; 2]; rows.len()];
    for (k, seed) in [42u64, 7].into_iter().enumerate() {
        let dir = scratch(&format!("digests_{seed}"));
        let mut ctx = ctx(seed);
        // Bands are calibrated for scale 0.2 and up, so a violated claim
        // (status 1) is fine here; a file that cannot be written is not.
        assert_ne!(exp::run(&mut ctx, &rows, Some(&dir)), 2);
        for (e, digest) in rows.iter().zip(&mut digests) {
            digest[k] = fnv1a(&std::fs::read(dir.join(e.file)).expect("row wrote its file"));
        }
        // Every run is memoised by now, so projecting again is free.
        for e in TABLE {
            let emits = if e.in_all {
                e
            } else {
                exp::find("streams").unwrap()
            };
            let variants = (emits.specs)(&mut ctx);
            let out = (emits.project)(&ctx.run_all(variants));
            for c in e.claims {
                assert!(out.get(c.fact).is_some(), "{}: no fact `{}`", e.id, c.fact);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    for (e, d) in rows.iter().zip(&digests) {
        table.push_str(&format!(
            "    (\"{}\", {:#018x}, {:#018x}),\n",
            e.id, d[0], d[1]
        ));
        if !PARENT_DIGESTS.contains(&(e.id, d[0], d[1])) {
            moved.push(e.id);
        }
    }
    assert!(moved.is_empty(), "rows {moved:?} moved; now:\n{table}");
}

#[test]
fn the_table_is_the_index_of_results() {
    let ids: HashSet<&str> = TABLE.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), TABLE.len(), "ids are unique");
    assert_eq!(all_rows().len(), PARENT_DIGESTS.len());
    assert_eq!(
        TABLE.len(),
        all_rows().len() + 1,
        "only streams_push is by name"
    );
    for e in TABLE {
        assert!(!e.claims.is_empty(), "{} carries no claim", e.id);
        assert!(exp::list().contains(e.id));
    }

    // Everything under results/ is a row's file, the full-report pin of
    // `policy_identity.rs`, or the canned fault plans.
    let not_experiments = ["policy_grouping_smoke_report.json", "fault_plans"];
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut on_disk: Vec<String> = std::fs::read_dir(results)
        .expect("results/ exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| !not_experiments.contains(&name.as_str()))
        .collect();
    let mut named: Vec<String> = TABLE.iter().map(|e| e.file.to_string()).collect();
    on_disk.sort();
    named.sort();
    assert_eq!(named, on_disk);
}

#[test]
fn a_violated_claim_is_exit_status_1() {
    const ROW: Experiment = Experiment {
        id: "zero",
        artifact: "test",
        title: "a row whose only fact is zero",
        paper: "nothing",
        file: "zero.json",
        in_all: false,
        specs: |_| Vec::new(),
        project: |_| Output::new(&0u64).fact("zero", 0.0),
        claims: &[claim("zero", Cmp::Ge, 0.0)],
    };
    const FALSE_ROW: Experiment = Experiment {
        claims: &[claim("zero", Cmp::Gt, 0.0)],
        ..ROW
    };
    let dir = scratch("status");
    assert_eq!(exp::run(&mut ctx(42), &[&ROW], Some(&dir)), 0);
    assert_eq!(std::fs::read_to_string(dir.join("zero.json")).unwrap(), "0");
    assert_eq!(exp::run(&mut ctx(42), &[&ROW, &FALSE_ROW], None), 1);
    // A directory that has gone away is an I/O error, not a violation.
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(exp::run(&mut ctx(42), &[&ROW], Some(&dir)), 2);
}

/// Run the built `exp` binary in `cwd` with none of its environment
/// variables set; returns (exit status, stdout, stderr).
fn exp_bin(cwd: &Path, args: &[&str]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    for var in ["SCALE", "SEED", "JOBS", "METRICS_OUT"] {
        cmd.env_remove(format!("SCANSHARE_{var}"));
    }
    let out = cmd.args(args).current_dir(cwd).output().expect("spawn exp");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let status = out.status.code().expect("exit code");
    (status, text(&out.stdout), text(&out.stderr))
}

#[test]
fn usage_errors_exit_2_with_one_line_that_lists_the_ids() {
    let dir = scratch("usage");
    std::fs::write(dir.join("a_file"), "").unwrap();
    let cases: [&[&str]; 5] = [
        &["nope"],
        &[],
        &["--out", "somewhere"],
        &["fig8_9", "--out"],
        &["fig8_9", "--out", "a_file/out"],
    ];
    for args in cases {
        let (status, stdout, stderr) = exp_bin(&dir, args);
        assert_eq!(status, 2, "exp {args:?}: {stderr}");
        assert_eq!(stdout, "");
        assert_eq!(stderr.lines().count(), 1, "exp {args:?}: {stderr}");
        for e in TABLE {
            assert!(stderr.contains(e.id), "exp {args:?} does not list {}", e.id);
        }
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        1,
        "nothing created"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_binary_lists_runs_and_writes_only_under_out() {
    let dir = scratch("bin");
    let (status, stdout, _) = exp_bin(&dir, &["list"]);
    assert_eq!((status, stdout), (0, exp::list()));

    assert_eq!(exp_bin(&dir, &["fig8_9"]).0, 0);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "no --out, no file"
    );
    assert_eq!(exp_bin(&dir, &["fig8_9", "--out", "out"]).0, 0);
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig8_9.json");
    assert_eq!(
        std::fs::read(dir.join("out/fig8_9.json")).unwrap(),
        std::fs::read(committed).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
