#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Everything runs offline — the workspace resolves from vendored path
# dependencies only (see vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check
# The paired host-time measurement is not a CI leg; its script must parse.
bash -n scripts/paired_bench.sh

echo "== cargo clippy (deny warnings) =="
# or_fun_call: `ok_or(format!(…))` and its kin build their argument on
# the success path too — one allocation per pool miss when it sat in
# `FileStore::physical`.
cargo clippy --offline --workspace --all-targets -- -D warnings -D clippy::or_fun_call

echo "== cargo doc (deny warnings) =="
# First-party crates only: the vendored shims in vendor/* are workspace
# members but intentionally undocumented. core and engine additionally
# carry #![warn(missing_docs)], so a public item without /// docs fails
# here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q \
    -p scanshare -p scanshare-engine -p scanshare-storage \
    -p scanshare-relstore -p scanshare-prng -p scanshare-tpch \
    -p scanshare-cli -p scanshare-bench -p scanshare-repro

echo "== cargo test =="
cargo test --offline --workspace -q

echo "== benchmark crate (metric-name drift + --quick smoke) =="
# benchmark/ is its own workspace with path dependencies on crates/*, so
# nothing above compiles it: an API change that breaks it would first
# fail in the pipeline. Its tests also check that what the program prints
# still matches BENCHMARK.json.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== perf-regression gate (smoke baseline) =="
scripts/bench_gate.sh results/baseline_smoke.json

echo "== default-report byte identity (committed artifact) =="
# A default (unprofiled, SLO-less) run's report must serialize to
# exactly the committed bytes: observability features are opt-in and
# may not perturb the deterministic report by a single byte.
report_out=$(mktemp)
cargo run --offline --release -q -p scanshare-bench --bin bench_gate -- \
    --gate results/baseline_smoke.json --report-out "$report_out" >/dev/null
if ! cmp -s "$report_out" results/policy_grouping_smoke_report.json; then
    echo "FAIL: default run report drifted from results/policy_grouping_smoke_report.json"
    rm -f "$report_out"
    exit 1
fi
rm -f "$report_out"
echo "report byte-identical to committed artifact"

echo "== run-history trend (informational, not gated) =="
# Exercise the observability-ledger path end-to-end: a replicated gate
# run appends to a throwaway ledger (3 reps, virtual metrics asserted
# bit-identical, wall medians bootstrap-summarized), then the history
# renderer validates the committed fixture ledger and runs the
# change-point check on it. Neither step gates: wall time is host noise
# (promote with --trend-gate / --strict once a deployment has a stable
# ledger).
trend_ledger=$(mktemp)
cargo run --offline --release -q -p scanshare-bench --bin bench_gate -- \
    --gate results/baseline_smoke.json --reps 3 --history "$trend_ledger" >/dev/null
entries=$(wc -l < "$trend_ledger")
if [ "$entries" -ne 1 ]; then
    echo "FAIL: replicated gate run appended $entries ledger entries (expected 1)"
    rm -f "$trend_ledger"
    exit 1
fi
rm -f "$trend_ledger"
cargo run --offline --release -q -p scanshare-cli --bin scanshare -- \
    history --ledger results/history.jsonl --check

echo "== push-delivery smoke gate (vs committed push baseline) =="
# Push-mode leg of the perf gate: the same pinned smoke workload run
# with --delivery push gates its 8 virtual metrics against the push
# mode's own committed baseline (one group driver changes the fix
# economics on purpose, so it can never share the pull baseline). Both
# modes append to a throwaway ledger; the push entry must carry its
# delivery tag and the history renderer must trend it as a separate
# push:<metric> series instead of splicing it into the pull series.
push_ledger=$(mktemp)
cargo run --offline --release -q -p scanshare-bench --bin bench_gate -- \
    --gate results/baseline_smoke.json --history "$push_ledger" >/dev/null
cargo run --offline --release -q -p scanshare-bench --bin bench_gate -- \
    --gate results/baseline_smoke_push.json --delivery push --history "$push_ledger"
if ! grep -q '"delivery":"push"' "$push_ledger"; then
    echo "FAIL: push-mode gate run did not tag its ledger entry"
    rm -f "$push_ledger"
    exit 1
fi
if [ "$(wc -l < "$push_ledger")" -ne 2 ]; then
    echo "FAIL: expected 2 ledger entries (pull + push), got $(wc -l < "$push_ledger")"
    rm -f "$push_ledger"
    exit 1
fi
push_trend=$(cargo run --offline --release -q -p scanshare-cli --bin scanshare -- \
    history --ledger "$push_ledger")
rm -f "$push_ledger"
if ! echo "$push_trend" | grep -q 'push:ss_makespan_us'; then
    echo "FAIL: history did not trend the push entry as its own series"
    exit 1
fi
echo "push smoke gated against its baseline; ledger trends both modes separately"

echo "== span-profiler smoke (informational, not gated) =="
# Record and render a fresh profile of the built-in smoke run: exercises
# the span subsystem end-to-end (begin/end nesting, Perfetto export
# validity is tested in the suite; this prints the per-phase table for
# the log).
cargo run --offline --release -q -p scanshare-cli --bin scanshare -- profile --smoke

echo "== fault-matrix smoke (empty plan must be a no-op) =="
# The fault-injection layer must be pay-for-what-you-use: gating the
# smoke pair under the canned *empty* plan has to reproduce the
# baseline exactly — all 8 gated metrics at 0.00% delta, not merely
# within tolerance.
fault_out=$(cargo run --offline --release -q -p scanshare-bench --bin bench_gate -- \
    --gate results/baseline_smoke.json --faults results/fault_plans/empty.json)
echo "$fault_out"
zero_deltas=$(echo "$fault_out" | grep -c ' 0\.00% ' || true)
if [ "$zero_deltas" -ne 8 ]; then
    echo "FAIL: empty fault plan perturbed the smoke run ($zero_deltas/8 metrics at 0.00% delta)"
    exit 1
fi
# And the transient plan must leave the gate green (sharing benefit and
# answer-preserving retries survive a 1% injected error rate).
cargo run --offline --release -q -p scanshare-bench --bin bench_gate -- \
    --gate results/baseline_smoke.json --faults results/fault_plans/transient_1pct.json

echo "== experiment table: claims + results/ byte identity =="
# Every row of `exp all` at the documented settings (scale 1.0, seed 42):
# the paper's claims each row carries are evaluated (a violated one is a
# non-zero exit, which fails CI here), and every file written must equal
# its committed copy under results/ — the same byte-identity contract
# policy_grouping_smoke_report.json has. A behaviour-changing PR
# regenerates results/ on purpose (`exp all --out results`) or fails.
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

echo "== first-party line counts (informational, not gated) =="
# Production vs test lines per crate, the figure each CHANGES.md entry
# quotes before/after (north-star aim 2: net lines tracked per PR).
scripts/loc.sh

echo "CI green."
