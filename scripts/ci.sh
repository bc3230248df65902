#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Everything runs offline — the workspace resolves from vendored path
# dependencies only (see vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Print a leg's header and, before it, how long the previous leg took.
leg_name=""
leg() {
    [ -z "$leg_name" ] || echo "-- $leg_name: $((SECONDS - leg_started)) s"
    leg_name=$1
    leg_started=$SECONDS
    [ -z "$leg_name" ] || echo "== $leg_name =="
}

leg "cargo fmt --check"
cargo fmt --all -- --check
# Not every script is a CI leg (the paired host-time measurement, the
# benchmark's repeatability check), but every one must parse.
for script in scripts/*.sh benchmark/check_repeat.sh; do
    bash -n "$script"
done

leg "cargo clippy (deny warnings)"
# or_fun_call: `ok_or(format!(…))` and its kin build their argument on
# the success path too — one allocation per pool miss when it sat in
# `FileStore::physical`.
cargo clippy --offline --workspace --all-targets -- -D warnings -D clippy::or_fun_call

leg "cargo doc (deny warnings)"
# First-party crates only: the vendored shims in vendor/* are workspace
# members but intentionally undocumented. core and engine additionally
# carry #![warn(missing_docs)], so a public item without /// docs fails
# here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q \
    -p scanshare -p scanshare-engine -p scanshare-storage \
    -p scanshare-relstore -p scanshare-prng -p scanshare-tpch \
    -p scanshare-cli -p scanshare-bench -p scanshare-repro

leg "cargo test"
cargo test --offline --workspace -q

leg "benchmark crate (metric-name drift + --quick smoke)"
# benchmark/ is its own workspace with path dependencies on crates/*, so
# nothing above compiles it: an API change that breaks it would first
# fail in the pipeline. Its tests also check that what the program prints
# still matches BENCHMARK.json.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

leg "row-kernel, walk, grouping, manager, placement, policy and sampler oracles, release build"
# The kernel's register chunks (K states × N sums, const-generic), the
# local group tables a grouped fold copies a state's first eight groups
# into (`LocalGroups`, one probe per row), the manager's grouping index
# and the placement estimator's sweep are release codegen: the debug
# suite above proves the source, not what the optimiser makes of it, and
# release is what every measurement runs. The core crate's grouping and
# manager tests hold the index's oracle against the re-forming pass and
# the manager's decisions over seeded call sequences; its placement tests
# hold the sweep and both searches against the naive estimator bit for
# bit; its policy tests pin the gates and push-attach answers each policy
# gives. The RID step folds a whole step in one pass over a shared
# decoded index: its per-run reference (in kernel_oracle), the
# joined-entry search and the RID answer oracle run here too. Every measurement also runs the interval
# sampler, so its by-name reference runs here as well. `Plan::gather` is
# the one ring walk of every cursor's steps, so the walk pin (every step
# of table, block-index and RID plans, digested) runs here too.
cargo test --release --offline -q -p scanshare-engine --lib -- kernel_oracle start_at_picks \
    walk_pin workload::tests::the_sampler_records_what_sampling_by_name_records
cargo test --release --offline -q --test row_kernel_oracle
cargo test --release --offline -q -p scanshare --lib -- grouping:: manager:: placement:: policy::

leg "examples, release build"
# `cargo test` compiles the examples but runs none of them. Each is a
# documented walkthrough (adaptive_throttling also asserts what it
# shows), so each must still run to completion.
for example in examples/*.rs; do
    cargo run --offline --release -q --example "$(basename "$example" .rs)" >/dev/null
done

leg "span-profiler smoke (informational, not gated)"
# Record and render a fresh profile of the built-in smoke run: exercises
# the span subsystem end-to-end (begin/end nesting, Perfetto export
# validity is tested in the suite; this prints the per-phase table for
# the log).
cargo run --offline --release -q -p scanshare-cli --bin scanshare -- profile --smoke

leg "experiment table: claims + results/ byte identity"
# Every row of `exp all` at the documented settings (scale 1.0, seed 42):
# the paper's claims each row carries are evaluated (a violated one is a
# non-zero exit, which fails CI here), and every file written must equal
# its committed copy under results/ — the same byte-identity contract
# policy_grouping_smoke_report.json has. Row `smoke` is the behaviour
# gate: the pinned 3-stream pair, pull and push, bare and under the empty
# and transient fault plans, every number written exactly. A
# behaviour-changing PR regenerates results/ on purpose (`exp all --out
# results`) or fails.
exp_out=$(mktemp -d)
env -u SCANSHARE_SCALE -u SCANSHARE_SEED \
    cargo run --offline --release -q -p scanshare-bench --bin exp -- all --out "$exp_out"
for f in "$exp_out"/*.json; do
    if ! cmp -s "$f" "results/$(basename "$f")"; then
        echo "FAIL: $(basename "$f") drifted from results/ (regenerate: exp all --out results)"
        rm -rf "$exp_out"
        exit 1
    fi
done
echo "$(ls "$exp_out" | wc -l) experiment files byte-identical to results/"
rm -rf "$exp_out"

leg "first-party line counts and binary text (informational, not gated)"
# Production vs test lines per crate, the figure each CHANGES.md entry
# quotes before/after (north-star aim 2: net lines tracked per PR), and
# the release CLI's .text bytes: every monomorphised copy of the row
# kernel (K × N × way of walking the rows) shows up there.
scripts/loc.sh
if command -v size >/dev/null && [ -f target/release/scanshare ]; then
    size -A target/release/scanshare |
        awk '$1 == ".text" { print ".text of target/release/scanshare: " $2 " bytes" }'
else
    echo "size or target/release/scanshare missing: .text not printed"
fi

leg "" # closes the last leg
echo "CI green in $SECONDS s."
