#!/usr/bin/env bash
# Repeatability acceptance check: run the whole benchmark twice on this
# commit and compare the two result files with the bounds declared in
# ../BENCHMARK.json. Host-clock end-to-end metrics may differ by at most
# their bound; every virtual-clock and count metric must be identical.
# Prints the per-metric difference; exits non-zero when B does not
# repeat A.
#
#   benchmark/check_repeat.sh [SEED]     (about 7 minutes)
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-42}"
bench() { cargo run --release --offline --quiet --manifest-path Cargo.toml -- "$@"; }
mkdir -p out
for side in a b; do
    bench --seed "$seed" > "out/repeat_$side.log"
    cp out/results.json "out/repeat_$side.json"
done
bench --compare out/repeat_a.json out/repeat_b.json
