//! No silent flags: for every row of `scanshare_cli::COMMANDS`, a command
//! line the row does not allow — an unknown flag, a value flag without
//! its value, a flag given twice — exits 2 with exactly one `error:` line
//! naming the command and the offending argument, and prints nothing on
//! stdout (the parser refuses it before any work starts). So do a third
//! positional to `diff`, `profile` without its `--artifact`, `exp`
//! without its rows, and the retired `run --policy`, `run --delivery`
//! and `profile --smoke`.

use std::process::Command;

use scanshare_cli::COMMANDS;

fn assert_refused(argv: &[&str], names: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_scanshare"))
        .args(argv)
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
    assert!(out.stdout.is_empty(), "{argv:?}: stdout not empty");
    let errors: Vec<&str> = err.lines().filter(|l| l.contains("error:")).collect();
    assert_eq!(errors.len(), 1, "{argv:?}: {err}");
    let line = errors[0];
    assert!(
        line.starts_with(&format!("error: {}: ", argv[0])) && line.contains(names),
        "{argv:?}: {line}"
    );
}

#[test]
fn every_command_refuses_what_its_row_does_not_allow() {
    for cmd in COMMANDS {
        assert_refused(&[cmd.name, "--bogus"], "--bogus");
        for f in cmd.flags {
            let given: &[&str] = match f.value {
                Some(_) => &[f.name, "x"],
                None => &[f.name],
            };
            assert_refused(&[&[cmd.name], given, given].concat(), f.name);
            if f.value.is_some() {
                assert_refused(&[cmd.name, f.name], f.name);
                assert_refused(&[cmd.name, f.name, "--bogus"], f.name);
            }
        }
    }
    assert_refused(&["diff", "a.json", "b.json", "c.json"], "c.json");
    assert_refused(&["diff", "a.json"], "B.json");
    assert_refused(&["profile"], "missing --artifact");
    assert_refused(&["profile", "--smoke"], "--smoke");
    assert_refused(
        &["run", "--spec", "s.json", "--policy", "elevator"],
        "--policy",
    );
    assert_refused(
        &["run", "--spec", "s.json", "--delivery", "push"],
        "--delivery",
    );
    assert_refused(&["exp", "--out", "o1"], "expected ROWS");
    assert_refused(
        &["exp", "fig8_9", "--out", "o1", "--out", "o2"],
        "--out given twice",
    );
}
