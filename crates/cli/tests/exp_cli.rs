//! `scanshare exp`, the experiment table's command, as a process: a bad
//! command line or database scale exits 2 with one `error:` line before
//! any row runs or any directory is created, `list` prints the index, and
//! a run writes JSON only under `--out`.

use std::path::{Path, PathBuf};
use std::process::Command;

use scanshare_bench::exp::{self, TABLE};

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scanshare_exp_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Run `scanshare exp ARGS` in `cwd`; returns (exit status, stdout,
/// stderr).
fn exp_bin(cwd: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scanshare"))
        .arg("exp")
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn scanshare");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let status = out.status.code().expect("exit code");
    (status, text(&out.stdout), text(&out.stderr))
}

#[test]
fn usage_errors_exit_2_with_one_error_line_naming_the_problem() {
    let dir = scratch("usage");
    std::fs::write(dir.join("a_file"), "").unwrap();
    let cases: [(&[&str], &str); 13] = [
        (&["nope"], "unknown experiment 'nope'"),
        (&["fig8_9,nope"], "unknown experiment 'nope'"),
        (&["fig8_9,"], "unknown experiment ''"),
        (&[], "expected ROWS"),
        (&["--out", "somewhere"], "expected ROWS"),
        (&["fig8_9", "--out"], "--out needs a value"),
        (
            &["fig8_9", "--out", "o1", "--out", "o2"],
            "--out given twice",
        ),
        (&["fig8_9", "--out", "a_file/out"], "cannot create --out"),
        (&["list", "--out", "somewhere"], "list takes no --out"),
        (&["fig8_9", "--seed", "-1"], "--seed '-1'"),
        (
            &["fig8_9", "--scale", "0"],
            "--scale must be a finite number",
        ),
        (
            &["fig8_9", "--scale", "NaN"],
            "--scale must be a finite number",
        ),
        (
            &["table1", "--scale", "0.0000001"],
            "--scale 0.0000001 leaves table lineitem without rows",
        ),
    ];
    for (args, names) in cases {
        let (status, stdout, stderr) = exp_bin(&dir, args);
        assert_eq!(status, 2, "exp {args:?}: {stderr}");
        assert_eq!(stdout, "", "exp {args:?}: no row ran");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.contains("error:")).collect();
        assert_eq!(errors.len(), 1, "exp {args:?}: {stderr}");
        let line = errors[0];
        assert!(
            line.starts_with("error: exp: ") && line.contains(names),
            "exp {args:?}: {line}"
        );
        if names.starts_with("unknown experiment") {
            for e in TABLE {
                assert!(line.contains(e.id), "exp {args:?} does not list {}", e.id);
            }
        }
    }
    // A bad scale is not a usage mistake: its line is all there is.
    let (_, _, stderr) = exp_bin(&dir, &["table1", "--scale", "0.0000001"]);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
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
