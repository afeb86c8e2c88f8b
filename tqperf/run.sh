#!/usr/bin/env bash
# Builds tqperf and tqserve from this checkout, then runs tqperf with
# the given arguments. Run from the repository root:
#
#   bash tqperf/run.sh --workload cold-scan --seed 1 --seconds 28 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/tqperf/go.mod" ]]; then
	echo "tqperf: run from the repository root (needs go.mod and tqperf/go.mod)" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out/bin" "$out/work" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
(cd "$root/tqperf" && go build -o "$out/bin/" . github.com/trajcover/trajcover/cmd/tqserve)
exec "$out/bin/tqperf" -tqserve "$out/bin/tqserve" -workdir "$out/work" "$@"
