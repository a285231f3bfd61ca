#!/usr/bin/env bash
# Alternating parent/change pairs of the repository's benchmark.
#
#   NAME=pr24_bytecode scripts/e2e_pairs.sh PARENT_DIR CHANGE_DIR N [workloads...]
#
# Builds the `e2e` package of both checkouts with the command in
# BENCHMARK.json, then for every workload (default: all of BENCHMARK.json's)
# runs N pairs of `e2e --workload W --seed i --seconds <run_seconds> --out`,
# pair i on seed i, odd pairs parent first, even pairs change first. Each run
# is the timed run followed by the traced one, so it carries every metric.
#
# Writes results/${NAME}_e2e_runs.tsv in this checkout (columns: runs,
# workload, metric, pair, parent, change; `runs` is `e2e` for the end-to-end
# rows and attempted/failed, `traced` for the per-layer rows; every run made,
# none dropped) and ends with `e2e --compare parent.json change.json`, whose
# exit status it returns (1 regressed, 2 unresolved, 0 ok). Every run's log
# goes through scripts/check_result_line.sh; a run whose last line lacks a
# BENCHMARK.json name is reported as it happens, and makes the status 3 when
# the comparison itself was ok.
#
# RUN_SECONDS overrides the run length, for trying the script out only.
# Needs jq. Writes only under each checkout's .bench_build/ and results/.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
pairs=$3
shift 3

root=$(cd "$(dirname "$0")/.." && pwd)
bench=$root/BENCHMARK.json
mapfile -t build < <(jq -r '.command[]' "$bench")
seconds=${RUN_SECONDS:-$(jq -r '.run_seconds' "$bench")}
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' "$bench")
fi
tsv=$root/results/${NAME:-prNN_change}_e2e_runs.tsv

work=$change/.bench_build/e2e-pairs
rm -rf "$work"
mkdir -p "$work" "$root/results"

for dir in "$parent" "$change"; do
    echo "# building $dir" >&2
    (cd "$dir" && CARGO_TARGET_DIR=.bench_build "${build[@]}" --list >/dev/null)
done

# One run of one side; a failed check is recorded by the run itself
# (`failed`), and a malformed result line is counted, so neither stops the
# series.
malformed=0
run() { # side dir workload seed
    echo "# $3 pair $4: $1" >&2
    local log=$work/$1-$3-$4.log
    (cd "$2" && CARGO_TARGET_DIR=.bench_build ./.bench_build/release/e2e \
        --workload "$3" --seed "$4" --seconds "$seconds" --out "$work/$1.json" \
        >"$log") || echo "# $1 $3 seed $4 exited $?" >&2
    "$root/scripts/check_result_line.sh" both "$log" || {
        echo "# $1 $3 seed $4: malformed result line in $log" >&2
        malformed=$((malformed + 1))
    }
}

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$parent" "$w" "$i"
            run change "$change" "$w" "$i"
        else
            run change "$change" "$w" "$i"
            run parent "$parent" "$w" "$i"
        fi
    done
done

jq -r --slurpfile other "$work/change.json" \
    --argjson e2e "$(jq '[.end_to_end[].name]' "$bench")" '
    def cell: if . == null then "None" else . end;
    .runs as $a | $other[0].runs as $b
    | (["runs", "workload", "metric", "pair", "parent", "change"] | @tsv),
      (("e2e", "traced") as $kind
       | ($a | map(.workload) | unique[]) as $w
       | ($a | map(select(.workload == $w))) as $pa
       | ($b | map(select(.workload == $w))) as $pb
       | ((if $kind == "e2e" then ["attempted", "failed"] else [] end)
          + ($pa[0].metrics | keys_unsorted
             | map(select((. as $m | $e2e | index($m) != null) == ($kind == "e2e")))))[] as $m
       | $pa[] as $ra
       | ($pb | map(select(.seed == $ra.seed)) | first) as $rb
       | select($rb != null)
       | [$kind, $w, $m, $ra.seed,
          ($ra[$m] // $ra.metrics[$m].value | cell),
          ($rb[$m] // $rb.metrics[$m].value | cell)]
       | @tsv)
    ' "$work/parent.json" >"$tsv"
echo "# $(($(wc -l <"$tsv") - 1)) rows in $tsv" >&2

cd "$change"
status=0
CARGO_TARGET_DIR=.bench_build ./.bench_build/release/e2e --compare "$work/parent.json" \
    "$work/change.json" || status=$?
if [ "$malformed" -gt 0 ]; then
    echo "# $malformed run(s) ended without a full result line" >&2
    [ "$status" -ne 0 ] || status=3
fi
exit "$status"
