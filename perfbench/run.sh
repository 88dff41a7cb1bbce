#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload design --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the repository root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -trimpath -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
