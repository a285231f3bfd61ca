#!/usr/bin/env bash
# Checks the result line of one `e2e` run.
#
#   e2e --workload W --trace 0 ... | scripts/check_result_line.sh 0
#   scripts/check_result_line.sh both run.log
#
# MODE is the run's `--trace` value: 0 (untraced run), 1 (traced run) or
# `both` (no `--trace`: the timed run, then the traced one). The last line of
# the log (LOG, default stdin) must parse as JSON, and its `metrics` must hold
# every name BENCHMARK.json lists for that mode: the `end_to_end` names for 0,
# the `per_layer` names for 1, both sets for `both`. A name the run left out,
# e.g. a row it measured as null, is printed and the exit is 1.
#
# Needs jq.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
case $1 in
    0) sets='.end_to_end' ;;
    1) sets='.per_layer' ;;
    both) sets='.end_to_end, .per_layer' ;;
    *) echo "check_result_line: MODE is 0, 1 or both, not \`$1\`" >&2; exit 2 ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
line=$(tail -n 1 "${2:-/dev/stdin}")
if ! jq -e 'type == "object"' <<<"$line" >/dev/null 2>&1; then
    echo "check_result_line: the last line is not a JSON object: $line" >&2
    exit 1
fi
missing=$(jq -r --argjson line "$line" \
    "[$sets] | add | map(.name) - (\$line.metrics // {} | keys) | .[]" "$root/BENCHMARK.json")
if [ -n "$missing" ]; then
    echo "check_result_line: the result line lacks $(wc -l <<<"$missing") BENCHMARK.json name(s):" >&2
    echo "$missing" >&2
    exit 1
fi
