//! Experiment harness regenerating every table and figure of the paper,
//! plus the in-repo micro-benchmark harness.
//!
//! The experiments are rows of one table, [`exp::TABLE`], run by one
//! command: `scanshare exp list` prints the index (id, paper artifact,
//! claims), `scanshare exp all` or `scanshare exp ID,ID…` runs rows,
//! prints their tables, checks the paper's claims each row carries and —
//! only under `--out DIR` — writes the raw numbers as JSON. Scale via
//! `--scale` (default 1.0) and seed via `--seed` (default 42). Row
//! `smoke` ignores both: its file, compared byte for byte by CI, is the
//! behaviour gate.

pub mod exp;
pub mod micro;
pub mod stats;
