#!/usr/bin/env bash
# First-party Rust line counts, production vs test, so the per-PR "net
# lines" figure in CHANGES.md is computed the same way every time.
#
# A file under src/ is split at its first `#[cfg(test)]` line: what comes
# before is production, the rest is test. Files under tests/, benches/
# and examples/ count as test in full. Vendored shims (vendor/) and build
# output are not first-party and are skipped. Every line counts: blank
# lines and comments are part of what a reader has to get through.
#
# Usage:
#   scripts/loc.sh                    # one row per crate, totals last
#   scripts/loc.sh FILE.rs [FILE.rs…] # one row per file, totals last
set -euo pipefail
cd "$(dirname "$0")/.."

row() { printf '%-34s %10s %8s\n' "$@"; }

total_prod=0
total_test=0
# Print one row named $1 for the Rust files in the remaining arguments.
count() {
    local name=$1 prod=0 test=0 f n cut
    shift
    for f in "$@"; do
        n=$(wc -l < "$f")
        case "$f" in
        */src/* | src/*) cut=$(awk '/#\[cfg\(test\)\]/ { print NR - 1; exit }' "$f") ;;
        *) cut=0 ;;
        esac
        cut=${cut:-$n}
        prod=$((prod + cut))
        test=$((test + n - cut))
    done
    row "$name" "$prod" "$test"
    total_prod=$((total_prod + prod))
    total_test=$((total_test + test))
}

row "" production test
if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        count "$f" "$f"
    done
else
    for dir in crates/*/ benchmark/ ./; do
        name=$(basename "$dir")
        [ "$dir" != ./ ] || name="(root package)"
        # Each crate's own source directories only: the root package
        # must not swallow crates/, benchmark/ or vendor/.
        mapfile -t files < <(find "$dir"src "$dir"tests "$dir"benches "$dir"examples \
            -name '*.rs' 2>/dev/null | sort)
        count "$name" "${files[@]}"
    done
fi
row total "$total_prod" "$total_test"
