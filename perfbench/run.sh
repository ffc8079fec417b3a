#!/usr/bin/env bash
# Builds xontoserve and the benchmark program from the checkout this is
# run in, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload search_prebuilt --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache included). The last line of standard
# output is the JSON result; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/xontoserve" ]; then
	echo "perfbench: $root is not the repository root (no go.mod or cmd/xontoserve)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0

go build -C "$root" -o "$out/bin/xontoserve" ./cmd/xontoserve
go build -C "$root/perfbench" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -server "$out/bin/xontoserve" -work "$out/work" "$@"
