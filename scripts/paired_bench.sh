#!/usr/bin/env bash
# The host-time ground rule (ROADMAP) as a script: alternating process
# pairs of a parent commit and the working tree, both measured with their
# own unchanged benchmark/, every run printed, and per end-to-end metric
# the verdict in the rule's words.
#
#   scripts/paired_bench.sh PARENT_REF [--workloads a,b] [--pairs N]
#                           [--seeds "s1 s2 …"] [--confirm "s1 s2 …"] [--out FILE]
#
# PARENT_REF is `git archive`d into a scratch directory and built there;
# the change is the working tree, built into the same scratch directory.
# Pair i runs every selected workload once per side as its own process
# (`--workload W --seed S_i --reps 5 --trace 0`, the driver's call),
# parent first in even pairs and change first in odd ones. A change is
# `faster` (or `slower`) on a metric when it is ahead (behind) in at least
# nine tenths of the pairs, ties counting for neither, and the medians lie
# further apart than the parent's own quartiles; everything else is
# `unresolved`. Virtual-clock metrics and counts must be equal at every
# seed: a difference is printed and the script exits 1. Beside each
# verdict stands how far the change's median moved from the parent's, and
# `OVER` when it is worse by more than the metric's `bound` in
# BENCHMARK.json: the benchmark's regression rule, which a metric can break
# while its verdict reads `unresolved`.
#
# One run's `slower` on a shared host is not enough to settle anything.
# With --confirm, every workload on which a host-clock metric reads
# `slower` or a metric is over its bound is measured again, the same way, at the --confirm seeds (one
# per pair, fresh ones), and the second verdict is printed beside the
# first and recorded under "confirm" in the summary.
#
# The summary — both SHAs, seeds, per metric each side's runs, median and
# quartiles, the host-speed factor of every run — is also written to
# BENCH_<issue>.json at the repo root, the committed trajectory north-star
# aim 1 asks for; <issue> is the number on the first line of ISSUE.md, and
# without one the script wants --out before it builds anything. Scratch
# files go to $PAIRED_BENCH_DIR (default: $TMPDIR/paired_bench); nothing
# under benchmark/ is written.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n 's/^#   /usage: /p' "$0" | sed '2,$s/^usage: /       /' >&2
    exit 2
}

[ "$#" -ge 1 ] || usage
parent_ref=$1
shift
workloads=$(awk -F'"' '/"workloads"/ { on = 1 } on && /"name"/ { print $4 } on && /\]/ { exit }' \
    BENCHMARK.json | paste -sd, -)
pairs=10
seeds="7 11 3 19 23 101 5 42 2027 31"
out=
confirm=
while [ "$#" -gt 0 ]; do
    case $1 in
    --workloads) workloads=$2 ;;
    --pairs) pairs=$2 ;;
    --seeds) seeds=$2 ;;
    --confirm) confirm=$2 ;;
    --out) out=$2 ;;
    *) usage ;;
    esac
    shift 2 || usage
done
if [ -z "$out" ]; then
    issue=$(sed -n '1s/^# ISSUE \([0-9][0-9]*\).*/\1/p' ISSUE.md 2>/dev/null || true)
    if [ -z "$issue" ]; then
        echo "ISSUE.md names no issue number: say where the summary goes with --out" >&2
        usage
    fi
    out=BENCH_$issue.json
fi
if [ "$pairs" -lt 10 ]; then
    echo "note: $pairs pairs — the ground rule asks for at least 10; verdicts are indicative only" >&2
fi
for list in "$seeds" ${confirm:+"$confirm"}; do
    read -r -a given <<<"$list"
    if [ "${#given[@]}" -lt "$pairs" ]; then
        echo "need one seed per pair: $pairs pairs, ${#given[@]} seeds in \"$list\"" >&2
        exit 2
    fi
done

dir=${PAIRED_BENCH_DIR:-${TMPDIR:-/tmp}/paired_bench}
parent_sha=$(git rev-parse "$parent_ref^{commit}")
change_sha=$(git rev-parse HEAD)
git diff --quiet HEAD -- . ':!ISSUE.md' || change_sha=$change_sha-dirty
rm -rf "$dir/parent" "$dir"/runs*.tsv "$dir"/verdicts*.tsv "$dir"/workloads*.json
mkdir -p "$dir/parent" "$dir/out-parent" "$dir/out-change"
git archive "$parent_sha" | tar -x -C "$dir/parent"

echo "== building parent $parent_sha and change $change_sha =="
declare -A bin
for side in parent change; do
    src=$dir/parent
    [ "$side" = parent ] || src=$PWD
    CARGO_TARGET_DIR=$dir/target-$side cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml"
    bin[$side]=$dir/target-$side/release/scanshare-layerbench
done

# One process run; appends "pair seed side workload name value unit" rows
# (the metric lines, the run's counts, the host-speed factor) to $runs.
run() {
    local pair=$1 seed=$2 side=$3 workload=$4 log
    log=$(CARGO_MANIFEST_DIR=$dir/out-$side "${bin[$side]}" \
        --workload "$workload" --seed "$seed" --reps 5 --trace 0)
    echo "$log" | awk -v p="$pair" -v s="$seed" -v side="$side" -v w="$workload" '
        BEGIN { OFS = "\t" }
        $1 == w && NF == 4 { print p, s, side, w, $2, $3, $4; line = line " " $2 " " $3 }
        /^# .* reps: / { for (i = 1; i < NF; i++) if ($i == "at") { sub(/x$/, "", $(i + 1)); speed = $(i + 1) } }
        /^\{"correct"/ {
            n = split($0, f, /[{,]/)
            for (i = 1; i <= n; i++) if (f[i] ~ /^"(correct|attempted|failed)":/) {
                split(f[i], kv, ":"); gsub(/"/, "", kv[1])
                print p, s, side, w, kv[1], (kv[2] == "true" ? 1 : kv[2] == "false" ? 0 : kv[2]), "count"
            }
        }
        END {
            print p, s, side, w, "host_speed", speed, "x"
            printf "pair %2d seed %-5s %-6s %-12s host %sx%s\n", p, s, side, w, speed, line > "/dev/stderr"
        }' >>"$runs"
}

# Alternating pairs of the workloads in $1 at the seeds in $2.
measure() {
    local -a at
    read -r -a at <<<"$2"
    echo "== $pairs alternating pairs: $1 =="
    for ((p = 0; p < pairs; p++)); do
        order="parent change"
        [ $((p % 2)) -eq 0 ] || order="change parent"
        for workload in ${1//,/ }; do
            for side in $order; do
                run "$p" "${at[$p]}" "$side" "$workload"
            done
        done
    done
}

# Summarise the runs file given last: stdout gets the table (with the
# verdicts of the first pass beside these when its verdicts file comes
# first), $verdicts the "workload metric verdict exact|host over|within"
# lines (`-` for a metric without a bound), $frag
# the JSON body of the workloads. Fails on a virtual-clock or count
# difference.
summarise() {
    awk -F'\t' -v pairs="$pairs" -v out="$frag" -v verdicts="$verdicts" '
function quantile(v, n, q,    h, lo) {
    h = (n - 1) * q; lo = int(h)
    return lo + 1 < n ? v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1]) : v[n]
}
# Sorts side`s runs of (w, m) into sorted[], returns how many.
function load(side, w, m,    n, i, j, t) {
    n = 0
    for (i = 0; i < pairs; i++) if ((i, side, w, m) in val) sorted[++n] = val[i, side, w, m] + 0
    for (i = 2; i <= n; i++) for (j = i; j > 1 && sorted[j - 1] > sorted[j]; j--) {
        t = sorted[j]; sorted[j] = sorted[j - 1]; sorted[j - 1] = t
    }
    return n
}
function side_json(side, w, m,    n, i, s) {
    n = load(side, w, m)
    med[side] = quantile(sorted, n, 0.5); q1[side] = quantile(sorted, n, 0.25); q3[side] = quantile(sorted, n, 0.75)
    s = sprintf("{\"median\":%.9g,\"q1\":%.9g,\"q3\":%.9g,\"runs\":[", med[side], q1[side], q3[side])
    for (i = 0; i < pairs; i++) s = s (i ? "," : "") val[i, side, w, m]
    return s "]}"
}
FILENAME ~ /BENCHMARK\.json$/ {
    # Which way each end-to-end metric is better.
    if ($0 ~ /"end_to_end"/) e2e = 1
    if (e2e && $0 ~ /"per_layer"/) e2e = 0
    if (e2e && match($0, /"name": *"[^"]*"/)) { name = substr($0, RSTART, RLENGTH); gsub(/"name": *|"/, "", name) }
    if (e2e && match($0, /"better": *"[^"]*"/)) { b = substr($0, RSTART, RLENGTH); gsub(/"better": *|"/, "", b); better[name] = b }
    if (e2e && match($0, /"bound": *[0-9.eE+-]+/)) { b = substr($0, RSTART, RLENGTH); gsub(/"bound": */, "", b); bound[name] = b + 0 }
    next
}
FILENAME ~ /verdicts/ { split($0, f, " "); first[f[1], f[2]] = f[3]; firsts = 1; next }
{
    val[$1, $3, $4, $5] = $6; unit[$5] = $7; seed[$1] = $2
    if (!(($4) in seen_w)) { seen_w[$4]; ws[++nw] = $4 }
    if (!(($4, $5) in seen_m)) { seen_m[$4, $5]; ms[$4, ++nm[$4]] = $5 }
}
END {
    printf "" > out
    for (a = 1; a <= nw; a++) {
        w = ws[a]
        printf "\n== %s ==\n%-24s %13s %13s %13s %13s %6s  %-14s %s\n", w, "metric", "parent med", "parent q1", "parent q3", "change med", "wins", "vs bound", (firsts ? "first / confirm" : "verdict")
        printf "%s\n\"%s\":{", (a > 1 ? "," : ""), w > out
        for (k = 1; k <= nm[w]; k++) {
            m = ms[w, k]
            pj = side_json("parent", w, m); cj = side_json("change", w, m)
            wins = losses = 0
            exact = (m ~ /^virt_/ || unit[m] == "count")
            for (i = 0; i < pairs; i++) {
                p = val[i, "parent", w, m]; c = val[i, "change", w, m]
                if (exact && p != c) { printf "DIFFERS: %s %s at seed %s: parent %s, change %s\n", w, m, seed[i], p, c; bad = 1 }
                if (better[m] == "higher") { t = p; p = c; c = t }
                wins += (c + 0 < p + 0); losses += (c + 0 > p + 0)
            }
            gap = med["change"] - med["parent"]; if (gap < 0) gap = -gap
            iqr = q3["parent"] - q1["parent"]
            if (m == "host_speed") verdict = "-"
            else if (wins + losses == 0) verdict = "identical"
            else if (exact) verdict = "DIFFERS"
            else if (wins >= 0.9 * pairs && gap > iqr) verdict = "faster"
            else if (losses >= 0.9 * pairs && gap > iqr) verdict = "slower"
            else verdict = "unresolved"
            shown = (firsts ? first[w, m] " / " verdict : verdict)
            # The median of the change against that of the parent, signed
            # so that positive is worse, and whether that breaks the bound.
            over = "-"; against = ""; bj = ""
            if (m in bound) {
                worse = (med["parent"] != 0 ? (med["change"] - med["parent"]) / med["parent"] : 0)
                if (better[m] == "higher") worse = -worse
                over = (worse > bound[m] ? "over" : "within")
                against = sprintf("%+.1f%%%s", 100 * worse, (over == "over" ? " OVER" : ""))
                bj = sprintf(",\"bound\":%.9g,\"worse_by\":%.9g,\"over_bound\":%s", bound[m], worse, (over == "over" ? "true" : "false"))
                if (over == "over") { printf "OVER BOUND: %s %s median %.6g vs parent %.6g, worse by %.1f%% against a bound of %g%%\n", w, m, med["change"], med["parent"], 100 * worse, 100 * bound[m] > "/dev/stderr" }
            }
            printf "%-24s %13.6g %13.6g %13.6g %13.6g %3d/%-2d  %-14s %s\n", m, med["parent"], q1["parent"], q3["parent"], med["change"], wins, pairs, against, shown
            printf "%s\n\"%s\":{\"unit\":\"%s\",\"parent\":%s,\"change\":%s,\"wins\":%d,\"losses\":%d,\"verdict\":\"%s\"%s}", \
                (k > 1 ? "," : ""), m, unit[m], pj, cj, wins, losses, verdict, bj > out
            print w, m, verdict, (exact ? "exact" : "host"), over > verdicts
        }
        printf "}" > out
    }
    exit bad
}' BENCHMARK.json "$@" || {
        echo "FAIL: a virtual-clock metric or count differs between parent and change" >&2
        failed=1
    }
}

# The JSON list of the first $pairs seeds in $1.
seed_json() {
    local -a at
    read -r -a at <<<"$1"
    (IFS=,; echo "${at[*]:0:$pairs}")
}

runs=$dir/runs.tsv verdicts=$dir/verdicts.tsv frag=$dir/workloads.json
measure "$workloads" "$seeds"
summarise "$runs"
summary="{\"parent\":\"$parent_sha\",\"change\":\"$change_sha\",\"protocol\":{\"pairs\":$pairs,\"reps\":5,\"trace\":0,\"seeds\":[$(seed_json "$seeds")]},\"workloads\":{$(cat "$frag")}"

if [ -n "$confirm" ]; then
    slower=$(awk '($3 == "slower" && $4 == "host" || $5 == "over") && !seen[$1]++ { print $1 }' \
        "$verdicts" | paste -sd, -)
    if [ -n "$slower" ]; then
        echo
        echo "== confirming what read slower or over its bound, at fresh seeds: $slower =="
        cp "$verdicts" "$dir/verdicts-first.tsv"
        runs=$dir/runs-confirm.tsv verdicts=$dir/verdicts-confirm.tsv frag=$dir/workloads-confirm.json
        measure "$slower" "$confirm"
        summarise "$dir/verdicts-first.tsv" "$runs"
        confirmed=$(cat "$frag")
    else
        echo
        echo "nothing read slower or over its bound: no confirmation run"
    fi
    summary="$summary,\"confirm\":{\"seeds\":[$(seed_json "$confirm")],\"workloads\":{${confirmed:-}}}"
fi
printf '%s}\n' "$summary" >"$out"
echo
echo "summary written to $out"
exit "${failed:-0}"
