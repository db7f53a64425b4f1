#!/usr/bin/env sh
# Perf ledger: the benchmark in the driver's form (bench/run.sh --workload W
# --seed S --seconds T --trace 0), run in alternated pairs on a base commit
# (`git archive <ref>`) and on the work tree, one process at a time; which
# side goes first alternates from pair to pair. For every end-to-end metric
# of BENCHMARK.json and every workload run it writes one row:
#   - parent and change: median, q1 and q3 over the pairs, and each pair's
#     two readings (runs: p, c);
#   - better_in: in how many pairs the change read better (ties count for
#     neither), of pairs;
#   - unresolved: the parent's q3 - q1 exceeds the metric's bound (a
#     fraction of the parent's median, read from BENCHMARK.json);
#   - worse: the change's median is worse than the parent's by more than the
#     bound;
#   - gain: better in at least nine tenths of the pairs, and the medians
#     differ by more than the parent's q3 - q1;
# then per workload the operations failed of those attempted on each side,
# and scripts/layout.sh's closing verdict line. The ledger is appended to
# the list in -out's "ledgers" (the file is created if absent), so one file
# holds runs at several seeds. Reads BENCHMARK.json; never edits it.
#
# usage: ledger.sh -base <git-ref> -out <file> [-pairs N] [-seed S]
#                  [-seconds T] [workload ...]
# Defaults: 10 pairs, seed 20140215, BENCHMARK.json's run_seconds, every
# workload. Needs jq.
set -eu

base= out= pairs=10 seed=20140215 seconds=
while [ $# -gt 0 ]; do
    case $1 in
    -base) base=${2:?}; shift 2 ;;
    -out) out=${2:?}; shift 2 ;;
    -pairs) pairs=${2:?}; shift 2 ;;
    -seed) seed=${2:?}; shift 2 ;;
    -seconds) seconds=${2:?}; shift 2 ;;
    -*) echo "ledger.sh: unknown flag $1" >&2; exit 2 ;;
    *) break ;;
    esac
done
[ -n "$base" ] && [ -n "$out" ] || { echo "usage: ledger.sh -base <git-ref> -out <file> [-pairs N] [-seed S] [-seconds T] [workload ...]" >&2; exit 2; }
case $out in /*) ;; *) out=$(pwd)/$out ;; esac

cd "$(dirname "$0")/.."
root=$(pwd)
bench=$root/BENCHMARK.json
[ -n "$seconds" ] || seconds=$(jq -r .run_seconds "$bench")
workloads=${*:-$(jq -r '.workloads[].name' "$bench")}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
layout=$(sh scripts/layout.sh -base "$base" | tail -n 1)
echo "ledger: layout: $layout" >&2

# run <side> <workload> <pair>: one driver-form run, its JSON line tagged.
run() {
    dir=$root
    [ "$1" = parent ] && dir=$tmp/base
    line=$( (cd "$dir" && bash bench/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) 2>/dev/null | tail -n 1) || true
    echo "$line" | jq -c --arg side "$1" --arg w "$2" --argjson pair "$3" \
        '{side: $side, workload: $w, pair: $pair, result: .}' >>"$tmp/runs" 2>/dev/null ||
        echo "{\"side\":\"$1\",\"workload\":\"$2\",\"pair\":$3,\"result\":null}" >>"$tmp/runs"
    echo "ledger: $2 pair $3 $1: $(echo "$line" | jq -c '.metrics | map_values(.value)' 2>/dev/null || echo no result)" >&2
}

for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$w" "$i"; run change "$w" "$i"
        else
            run change "$w" "$i"; run parent "$w" "$i"
        fi
        i=$((i + 1))
    done
done

jq -s --slurpfile bench "$bench" --arg base "$(git rev-parse "$base")" \
    --arg seed "$seed" --arg seconds "$seconds" --arg layout "$layout" --argjson pairs "$pairs" '
def quant(p): sort as $s | ((($s | length) - 1) * p) as $h | ($h | floor) as $lo
    | if $lo + 1 < ($s | length) then $s[$lo] + ($h - $lo) * ($s[$lo + 1] - $s[$lo]) else $s[$lo] end;
def summary: {median: quant(0.5), q1: quant(0.25), q3: quant(0.75)};
. as $runs | $bench[0] as $b
| [$runs[].workload] | unique as $ws
| {base: $base, seed: ($seed | tonumber), seconds: ($seconds | tonumber), pairs: $pairs, layout: $layout,
   rows: [$ws[] as $w | $b.end_to_end[] as $m
     | [range(1; $pairs + 1) as $i
        | [$runs[] | select(.workload == $w and .pair == $i)] as $pr
        | {p: ($pr[] | select(.side == "parent") | .result.metrics[$m.name].value),
           c: ($pr[] | select(.side == "change") | .result.metrics[$m.name].value)}
        | select(.p != null and .c != null)] as $ps
     | select($ps | length > 0)
     | ($ps | map(.p) | summary) as $p | ($ps | map(.c) | summary) as $c
     | (if $m.better == "lower" then 1 else -1 end) as $sign
     | {workload: $w, metric: $m.name, unit: $m.unit, bound: $m.bound, pairs: ($ps | length),
        parent: $p, change: $c, runs: $ps,
        better_in: ($ps | map(select(($m.better == "lower" and .c < .p) or ($m.better != "lower" and .c > .p))) | length),
        unresolved: (($p.q3 - $p.q1) > $m.bound * ($p.median | fabs)),
        worse: ($sign * ($c.median - $p.median) > $m.bound * ($p.median | fabs))}
     | .gain = (.better_in * 10 >= 9 * .pairs and ($c.median - $p.median | fabs) > ($p.q3 - $p.q1))],
   failures: [$ws[] as $w | {workload: $w} + ([["parent", "change"][] as $s
     | [$runs[] | select(.workload == $w and .side == $s) | .result] as $rs
     | {($s + "_failed"): ($rs | map(if . == null then 1 else .failed end) | add),
        ($s + "_attempted"): ($rs | map(if . == null then 1 else .attempted end) | add)}] | add)]}
' "$tmp/runs" >"$tmp/ledger"

if [ -f "$out" ]; then
    jq --slurpfile new "$tmp/ledger" '.ledgers += $new' "$out" >"$tmp/out"
else
    jq '{ledgers: [.]}' "$tmp/ledger" >"$tmp/out"
fi
mv "$tmp/out" "$out"
jq -r '.rows[] | [.workload, .metric, .parent.median, .change.median, "better \(.better_in)/\(.pairs)",
    (if .unresolved then "unresolved" elif .worse then "WORSE" elif .gain then "gain" else "flat" end)] | @tsv' "$tmp/ledger"
