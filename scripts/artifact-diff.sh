#!/usr/bin/env bash
# artifact-diff.sh BASE: prove that the working tree moves no simulated
# byte relative to git revision BASE.
#
# It builds tmccsim (plain, and with -race -tags tmccdebug) and ptbscan
# from `git archive BASE` and from the working tree, runs with each
#   - the `make smoke` chaos line (canneal/TMCC, CHAOS_PLAN, -chaos-seed 7,
#     -ras, every observation output), and the same line at -kind
#     os-inspired, the other design the armed benchmark runs,
#   - tmccsim -exp fig17 -quick -j 2 with -metrics, -timeline, -heatmap
#     and -breakdown-csv: many runs folding into one observer
#     concurrently, which pins the order-independent merge,
#   - tmccsim -exp ext-2dwalk -quick -format csv,
#   - ptbscan -pages 16384, with and without -huge,
# and cmp's every output. The -metrics JSONs are compared with the
# wall-clock engine.runMS and engine.queueWaitMS histograms removed (needs
# jq). Exits non-zero on any difference.
#
# Usage: scripts/artifact-diff.sh BASE   (or: make artifact-diff BASE=rev)
# ARTIFACT_DIR (default /tmp/tmcc-artifact-diff) holds binaries and outputs;
# CHAOS_PLAN overrides the fault plan (the Makefile passes its own).
set -euo pipefail

base=${1:?usage: $0 BASE}
root=$(git rev-parse --show-toplevel)
dir=${ARTIFACT_DIR:-/tmp/tmcc-artifact-diff}
plan=${CHAOS_PLAN:-cte=0.05,stale=0.02,payload=0.02,spike=0.01:250ns,busy=0.01:100ns:3}
command -v jq > /dev/null || { echo "artifact-diff: jq is required" >&2; exit 2; }

rm -rf "$dir"
mkdir -p "$dir/base/src" "$dir/head"
git -C "$root" archive "$base" | tar -x -C "$dir/base/src"

for side in base head; do
	src=$root
	[ "$side" = base ] && src=$dir/base/src
	o=$dir/$side
	echo "artifact-diff: building $side"
	(cd "$src" &&
		go build -o "$o/tmccsim" ./cmd/tmccsim &&
		go build -race -tags tmccdebug -o "$o/tmccsim_chaos" ./cmd/tmccsim &&
		go build -o "$o/ptbscan" ./cmd/ptbscan)
	echo "artifact-diff: running $side"
	for k in tmcc os-inspired; do
		c=$o/chaos-$k
		"$o/tmccsim_chaos" -run canneal -kind "$k" -quick \
			-faults "$plan" -chaos-seed 7 -ras \
			-metrics "$c.json" -trace "$c.trace" -breakdown-csv "$c.bd.csv" \
			-flame "$c.flame" -timeline "$c.tl.csv" -timeline-window 100us \
			-heatmap "$c.hm.csv" > "$c.out" 2> "$c.err"
	done
	"$o/tmccsim" -exp fig17 -quick -j 2 -metrics "$o/fig17.json" -timeline "$o/fig17.tl.csv" \
		-heatmap "$o/fig17.hm.csv" -breakdown-csv "$o/fig17.bd.csv" > "$o/fig17.out" 2> "$o/fig17.err"
	for m in chaos-tmcc chaos-os-inspired fig17; do
		jq 'del(.samples[] | select(.path == "engine.runMS" or .path == "engine.queueWaitMS"))' \
			"$o/$m.json" > "$o/$m.sim.json"
	done
	"$o/tmccsim" -exp ext-2dwalk -quick -format csv > "$o/ext-2dwalk.csv"
	"$o/ptbscan" -pages 16384 > "$o/ptbscan.txt"
	"$o/ptbscan" -pages 16384 -huge > "$o/ptbscan-huge.txt"
done

status=0
chaos=
for k in tmcc os-inspired; do
	for e in out err trace bd.csv flame tl.csv hm.csv sim.json; do chaos+=" chaos-$k.$e"; done
done
for f in $chaos fig17.out fig17.err fig17.tl.csv fig17.hm.csv fig17.bd.csv fig17.sim.json \
	ext-2dwalk.csv ptbscan.txt ptbscan-huge.txt; do
	if cmp "$dir/base/$f" "$dir/head/$f"; then
		echo "artifact-diff: $f identical"
	else
		status=1
	fi
done
if [ "$status" -ne 0 ]; then
	echo "artifact-diff: outputs differ from $base (see $dir)" >&2
	exit 1
fi
echo "artifact-diff: every artifact matches $base"
