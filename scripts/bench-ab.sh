#!/usr/bin/env bash
# Same-host A/B gate on the end-to-end benchmark. It checks out BASE in a
# temporary git worktree, then runs
#
#	bash _perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 0
#
# alternately in the base tree and in this tree, ten times each (which
# side goes first alternates too, so drift over the job hits both), and
# fails when
#   - a run of this tree reports "correct": false;
#   - this tree's share of failed operations is above the base's;
#   - for any workload and end-to-end metric listed in BENCHMARK.json, this
#     tree's median is worse than the base's median by more than the
#     metric's bound.
#
# Both trees run on one host in one job, so the comparison does not depend
# on how fast the host is. Run from the repository root:
#
#	bash scripts/bench-ab.sh [BASE]
#
# BASE is any git revision and defaults to HEAD, which measures the
# uncommitted changes. Each side's JSON lines are kept in
# .bench_build/ab/base.jsonl and .bench_build/ab/head.jsonl.
set -euo pipefail

command -v jq >/dev/null || { echo "bench-ab: needs jq" >&2; exit 2; }

pairs=10
seconds=5

rev=$(git rev-parse --verify "${1:-HEAD}^{commit}")
root=$(pwd)
out=$root/.bench_build/ab
tree=$(mktemp -d)
trap 'git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"; git worktree prune' EXIT
git worktree add --quiet --detach "$tree" "$rev"
mkdir -p "$out"
: >"$out/base.jsonl"
: >"$out/head.jsonl"

start=$(date +%s)
for i in $(seq "$pairs"); do
	order="base head"
	[ $((i % 2)) = 0 ] && order="head base"
	for side in $order; do
		dir=$root
		[ "$side" = base ] && dir=$tree
		echo "bench-ab: pair $i/$pairs, $side" >&2
		# run.sh exits 1 when a check failed; its JSON line still says so.
		(cd "$dir" && bash _perfbench/run.sh --workload all --seed 1 --seconds "$seconds" --trace 0) >"$out/run.txt" || true
		if ! tail -n 1 "$out/run.txt" | jq -e -c 'select(.metrics)' >>"$out/$side.jsonl"; then
			cat "$out/run.txt" >&2
			echo "bench-ab: the $side run printed no result" >&2
			exit 1
		fi
	done
done

report=$(jq -n -r --slurpfile base "$out/base.jsonl" --slurpfile head "$out/head.jsonl" \
	--slurpfile spec "$root/BENCHMARK.json" '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def share: (map(.failed) | add) / ([map(.attempted) | add, 1] | max);
	(if any($head[]; .correct | not) then "FAIL\tcurrent tree: a run reported correct=false" else empty end),
	(if ($head | share) > ($base | share) then
		"FAIL\tcurrent tree: failed share \($head | share) above base share \($base | share)" else empty end),
	($spec[0].workloads[].name as $w | $spec[0].end_to_end[] |
		"\($w).\(.name)" as $k |
		($base | map(.metrics[$k].value) | median) as $b |
		($head | map(.metrics[$k].value) | median) as $h |
		((if .better == "higher" then $h - $b else $b - $h end) / $b) as $gain |
		[if $gain < -.bound then "FAIL" else "ok" end, $w, .name, $b, $h, .unit, 100 * $gain, 100 * .bound] | @tsv)
')
echo "bench-ab: base $rev against this tree, medians of $pairs runs each side, $(($(date +%s) - start)) s"
awk -F '\t' 'BEGIN { printf "%-7s %-10s %-19s %12s %12s %-6s %8s %6s\n", "verdict", "workload", "metric", "base", "current", "unit", "gain", "bound" }
	NF < 8 { print $1, $2; next }
	{ printf "%-7s %-10s %-19s %12.5g %12.5g %-6s %+7.1f%% %5.0f%%\n", $1, $2, $3, $4, $5, $6, $7, $8 }' <<<"$report"
if grep -q '^FAIL' <<<"$report"; then
	echo "bench-ab: FAIL" >&2
	exit 1
fi
echo "bench-ab: ok"
