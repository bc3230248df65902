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

# Run, in a release build, the tests of a test target that the name
# filters after `--` select: `release_tests CARGO_ARGS… -- FILTER…`. A
# filter that selects no test fails the leg, so a renamed test cannot
# leave it unnoticed.
release_tests() {
    local args=() filter listed
    while [ "$1" != "--" ]; do
        args+=("$1")
        shift
    done
    shift
    for filter in "$@"; do
        listed=$(cargo test --release --offline -q "${args[@]}" -- --list "$filter")
        if ! grep -q ': test$' <<<"$listed"; then
            echo "FAIL: no test of ${args[*]} matches '$filter'" >&2
            exit 1
        fi
    done
    cargo test --release --offline -q "${args[@]}" -- "$@"
}

leg "row-kernel, walk, grouping, manager, placement, policy and sampler oracles, release build"
# The row kernel's one fold (ungrouped sums a column at a time, each
# running total in a register; grouped rows one at a time through the
# state's group table), the page subtotals a whole-page step folds and
# adds to each consumer's state, the run's memo of them (kernel_oracle
# holds the subtotals to a naive page-subtotal fold bit for bit and to
# the row-at-a-time fold within the summation-order bound, counts one
# fold a page over a run of staggered scans and over riders of one
# pipeline, and folds a kept subtotal of other bytes again), the
# manager's grouping index and the placement estimator's sweep are
# release codegen: the debug suite above proves the source, not what the
# optimiser makes of it, and release is what every measurement runs. The
# core crate's grouping and manager tests hold the index's oracle against
# the re-forming pass and the manager's decisions over seeded call
# sequences; its placement tests hold the sweep and both searches against
# the naive estimator bit for bit; its policy tests pin the placement
# threshold and push-attach answers each placement gives. A RID step
# takes whole runs of same-page RIDs off its index's run table and folds
# them one after another straight from the shared decoded index: the run
# gather's per-entry reference (rid_gather), the fold's per-run reference
# (in kernel_oracle), the joined-entry search and the RID answer oracle
# run here too. Every measurement also runs the interval sampler, so its
# by-name reference runs here as well. `Plan::gather` is the one ring
# walk of every cursor's steps, so the walk pin (every step of table,
# block-index and RID plans, digested) runs here too.
release_tests -p scanshare-engine --lib -- kernel_oracle start_at_picks walk_pin rid_gather \
    push::tests::mixed_pipelines_ride_one_driver_folding_each_page_once \
    workload::tests::the_sampler_records_what_sampling_by_name_records
release_tests --test row_kernel_oracle --
release_tests -p scanshare --lib -- grouping:: manager:: placement:: policy::

leg "CLI smoke: a profiled run renders, and run and watch twice byte for byte"
# A run with --profile-out saves a Chrome trace and embeds the folded
# profile in its report; `profile` renders that report as the per-phase
# table (to the log) and as folded stacks, and each must exit 0.
# `watch --tick-ms 0` draws every frame the run delivers exactly once,
# from inside the run, so two runs of the same spec must print the same
# bytes. `run --report` is the one way a CLI run is described (its spec,
# the database generated from it), so two runs of the same spec must save
# the same report, and `diff` of the two must find nothing (exit 0).
cargo build --offline --release -q -p scanshare-cli --bin scanshare
smoke_dir=$(mktemp -d)
target/release/scanshare spec-template >"$smoke_dir/spec.json"
target/release/scanshare run --spec "$smoke_dir/spec.json" --profile-out "$smoke_dir/trace.json" \
    --report "$smoke_dir/profiled.json" >/dev/null
target/release/scanshare profile --artifact "$smoke_dir/profiled.json"
target/release/scanshare profile --artifact "$smoke_dir/profiled.json" --collapse >/dev/null
for i in 1 2; do
    target/release/scanshare watch --spec "$smoke_dir/spec.json" --tick-ms 0 --no-clear \
        >"$smoke_dir/watch$i.txt"
done
if ! cmp "$smoke_dir/watch1.txt" "$smoke_dir/watch2.txt"; then
    echo "FAIL: two watch runs of one spec printed different output"
    rm -rf "$smoke_dir"
    exit 1
fi
echo "watch: $(grep -c '^scanshare watch' "$smoke_dir/watch1.txt") frames, byte-identical twice"
for i in 1 2; do
    target/release/scanshare run --spec "$smoke_dir/spec.json" --report "$smoke_dir/report$i.json" \
        >/dev/null
done
if ! cmp "$smoke_dir/report1.json" "$smoke_dir/report2.json" ||
    ! target/release/scanshare diff "$smoke_dir/report1.json" "$smoke_dir/report2.json" >/dev/null; then
    echo "FAIL: two runs of one spec saved different reports"
    rm -rf "$smoke_dir"
    exit 1
fi
echo "run: $(wc -c <"$smoke_dir/report1.json") report bytes, byte-identical twice, diff exit 0"
rm -rf "$smoke_dir"

leg "experiment table: claims + results/ byte identity"
# Every row of `exp all` at the documented settings (scale 1.0, seed 42),
# and the by-name row `streams_push` at its documented scale 0.1: the
# paper's claims each row carries are evaluated (a violated one is a
# non-zero exit, which fails CI here), and every file written must equal
# its committed copy under results/ — the same byte-identity contract
# policy_grouping_smoke_report.json has. Row `smoke` is the behaviour
# gate: the pinned 3-stream pair, pull and push, bare and under the empty
# and transient fault plans, every number written exactly. A
# behaviour-changing PR regenerates results/ on purpose (`scanshare exp
# all --out results`, `scanshare exp streams_push --scale 0.1 --out
# results`) or fails.
exp_out=$(mktemp -d)
target/release/scanshare exp all --out "$exp_out"
target/release/scanshare exp streams_push --scale 0.1 --out "$exp_out"
for f in "$exp_out"/*.json; do
    if ! cmp -s "$f" "results/$(basename "$f")"; then
        echo "FAIL: $(basename "$f") drifted from results/ (regenerate: scanshare exp ... --out results)"
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
