#!/usr/bin/env bash
# Builds the benchmark from the sources of the repository it is run in,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the persisted
# engine state of a run (removed when it ends) and the span files of
# traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off

if ! build_log=$(go build -C perfbench -o "$out/perfbench" . 2>&1); then
	echo "perfbench: build failed:" >&2
	echo "$build_log" >&2
	exit 1
fi
exec "$out/perfbench" -root "$root" -work "$out" "$@"
