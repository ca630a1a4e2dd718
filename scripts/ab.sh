#!/usr/bin/env bash
# ab.sh — same-host A/B of the repository benchmark (perfbench).
#
# Builds perfbench twice — at <base-rev>, exported with git archive into
# a temporary directory, and at the working tree — then runs N
# alternating pairs per workload over one shared seed list and prints,
# for every end-to-end metric, each side's median and quartiles, the
# median delta with its 95% bootstrap interval, and how many pairs the
# working tree won.
#
# Usage: scripts/ab.sh <base-rev> [workload...]
#
#   workloads default to cold-batch fleet-serve edit-reanalyze
#   AB_PAIRS    pairs per workload (default 10)
#   AB_SECONDS  op time per run, in seconds (default 10)
#   AB_SEEDS    space-separated seeds, one per pair (default 1..AB_PAIRS)
#   AB_OUT      keep the raw samples here as TSV (default: discarded)
#
# Pairs alternate which side runs first, so a slow drift of the host
# does not favour either side. A metric's winner per pair follows the
# "better" direction BENCHMARK.json declares for it; equal values are no
# win. Every run must report failed 0, or the script stops.
#
# The interval is a paired percentile bootstrap: 2000 resamples of the
# pairs, with replacement, each giving the relative change of the
# head median against the base median; the 2.5th and 97.5th
# percentiles bound the interval. The resampler is seeded with a fixed
# value, so rerunning the analysis on the same samples prints the same
# interval.
set -euo pipefail

if [ $# -lt 1 ]; then
	sed -n '2,30p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
base_rev=$1
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(cold-batch fleet-serve edit-reanalyze)
fi
pairs=${AB_PAIRS:-10}
seconds=${AB_SECONDS:-10}
read -r -a seeds <<<"${AB_SEEDS:-$(seq -s ' ' 1 "$pairs")}"
if [ ${#seeds[@]} -lt "$pairs" ]; then
	echo "ab.sh: AB_SEEDS has ${#seeds[@]} seeds for $pairs pairs" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/retypd-ab.XXXXXX")
cleanup() {
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

export GOTOOLCHAIN=local GOWORK=off
mkdir "$tmp/base"
git -C "$root" archive "$base_sha" | tar -x -C "$tmp/base"
echo "== building perfbench at ${base_sha:0:12} and at the working tree =="
go build -C "$tmp/base/perfbench" -o "$tmp/bin-base" .
go build -C "$root/perfbench" -o "$tmp/bin-head" .

# run <side> <workload> <seed>: one untraced run; appends
# "workload side pair metric value" lines to the sample file.
samples=$tmp/samples.tsv
run() {
	local side=$1 w=$2 seed=$3 pair=$4 src json
	if [ "$side" = base ]; then src=$tmp/base; else src=$root; fi
	mkdir -p "$tmp/work-$side"
	json=$(cd "$src" && "$tmp/bin-$side" -root "$src" -work "$tmp/work-$side" \
		--workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
	printf '%s\n' "$json" | awk -v w="$w" -v side="$side" -v pair="$pair" '
		{
			if (!match($0, /"failed":[0-9]+/)) { print "ab.sh: no result line" > "/dev/stderr"; exit 1 }
			failed = substr($0, RSTART + 9, RLENGTH - 9)
			if (failed + 0 != 0) { print "ab.sh: " side " " w " reported failed " failed > "/dev/stderr"; exit 1 }
			rest = $0
			while (match(rest, /"[a-z0-9_.]+":\{"value":[^,}]+/)) {
				kv = substr(rest, RSTART + 1, RLENGTH - 1)
				rest = substr(rest, RSTART + RLENGTH)
				name = kv; sub(/".*/, "", name)
				val = kv; sub(/.*"value":/, "", val)
				printf "%s\t%s\t%s\t%s\t%s\n", w, side, pair, name, val
			}
		}' >>"$samples"
}

for w in "${workloads[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		seed=${seeds[$i]}
		echo "== $w pair $((i + 1))/$pairs seed $seed ==" >&2
		if ((i % 2 == 0)); then
			run base "$w" "$seed" "$i"
			run head "$w" "$seed" "$i"
		else
			run head "$w" "$seed" "$i"
			run base "$w" "$seed" "$i"
		fi
	done
done

if [ -n "${AB_OUT:-}" ]; then
	cp "$samples" "$AB_OUT"
fi

# Metric directions from BENCHMARK.json's end_to_end list.
awk '
	/"end_to_end"/ { inE = 1 }
	/"per_layer"/ { inE = 0 }
	inE && /"name"/ { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n) }
	inE && /"better"/ { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); print n "\t" b }
' "$root/BENCHMARK.json" >"$tmp/better.tsv"

echo
echo "A/B: base ${base_sha:0:12} vs working tree; $pairs pairs x ${seconds}s per workload; seeds ${seeds[*]:0:$pairs}"
awk -F '\t' -v pairs="$pairs" '
	function sortv(a, n,   i, j, t) {
		for (i = 2; i <= n; i++) {
			t = a[i]
			for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
			a[j + 1] = t
		}
	}
	# q returns the p-quantile of the sorted a[1..n], interpolated.
	function q(a, n, p,   h, lo) {
		h = (n - 1) * p + 1
		lo = int(h)
		if (lo >= n) return a[n]
		return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	# heapsortv sorts a[1..n] in place without recursion (bootstrap
	# samples repeat values, which would drive a recursive quicksort
	# past the awk stack limit).
	function heapsortv(a, n,   i, end, t) {
		for (i = int(n / 2); i >= 1; i--) siftdown(a, i, n)
		for (end = n; end > 1; end--) {
			t = a[1]; a[1] = a[end]; a[end] = t
			siftdown(a, 1, end - 1)
		}
	}
	function siftdown(a, i, n,   c, t) {
		while ((c = 2 * i) <= n) {
			if (c < n && a[c + 1] > a[c]) c++
			if (a[i] >= a[c]) return
			t = a[i]; a[i] = a[c]; a[c] = t
			i = c
		}
	}
	# bootci sets lo_ci and hi_ci to the 95% paired percentile-bootstrap
	# interval of the relative median change, in percent, of the pairs
	# (bb[i], hh[i]), i = 1..n.
	function bootci(bb, hh, n,   r, i, j, rb, rh, bm, d, nd) {
		srand(20161)
		nd = 0
		for (r = 1; r <= 2000; r++) {
			for (i = 1; i <= n; i++) {
				j = int(rand() * n) + 1
				rb[i] = bb[j]; rh[i] = hh[j]
			}
			sortv(rb, n); sortv(rh, n)
			bm = q(rb, n, 0.5)
			if (bm != 0) d[++nd] = 100 * (q(rh, n, 0.5) - bm) / bm
		}
		heapsortv(d, nd)
		lo_ci = q(d, nd, 0.025); hi_ci = q(d, nd, 0.975)
		return nd
	}
	FNR == NR { better[$1] = $2; next }
	!(($1 SUBSEP $4) in seen) { seen[$1, $4] = 1; order[++nk] = $1 SUBSEP $4 }
	{ v[$1, $4, $2, $3] = $5 + 0 }
	END {
		printf "%-15s %-20s %30s %30s %8s %18s %6s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "95% CI", "wins"
		for (k = 1; k <= nk; k++) {
			split(order[k], wm, SUBSEP)
			w = wm[1]; m = wm[2]
			if (!(m in better)) continue
			wins = 0
			for (i = 0; i < pairs; i++) {
				b[i + 1] = v[w, m, "base", i]; h[i + 1] = v[w, m, "head", i]
				if (better[m] == "higher" ? h[i + 1] > b[i + 1] : h[i + 1] < b[i + 1]) wins++
			}
			ci = bootci(b, h, pairs) ? sprintf("[%+.1f%%, %+.1f%%]", lo_ci, hi_ci) : "n/a"
			sortv(b, pairs); sortv(h, pairs)
			bm = q(b, pairs, 0.5); hm = q(h, pairs, 0.5)
			delta = bm != 0 ? sprintf("%+.1f%%", 100 * (hm - bm) / bm) : "n/a"
			printf "%-15s %-20s %30s %30s %8s %18s %3d/%d\n", w, m,
				sprintf("%.4g [%.4g, %.4g]", bm, q(b, pairs, 0.25), q(b, pairs, 0.75)),
				sprintf("%.4g [%.4g, %.4g]", hm, q(h, pairs, 0.25), q(h, pairs, 0.75)),
				delta, ci, wins, pairs
		}
	}
' "$tmp/better.tsv" "$samples"
