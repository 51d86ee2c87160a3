#!/usr/bin/env bash
# Builds graphitti-server and the benchmark from this checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch data stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"
go build -o "$out/bin/graphitti-server" ./cmd/graphitti-server
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
	git -C "$root" rev-parse HEAD >"$out/bin/commit"
else
	echo "no-git" >"$out/bin/commit"
fi
exec "$out/bin/e2ebench" --server "$out/bin/graphitti-server" --work "$out/work" "$@"
