#!/usr/bin/env bash
# Builds the benchmark and the edgecolord daemon from this working tree,
# then runs the benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload d8 --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Every build output, the Go build cache
# and the benchmark's run data stay under .bench_build in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= \
	XDG_CONFIG_HOME="$out/config"
# Stamp the source revision into both binaries where git can report it;
# outside a usable git work tree build without it.
build() { go build "$@" 2>/dev/null || go build -buildvcs=false "$@"; }
build -o "$out/edgecolord" ./cmd/edgecolord
(cd "$root/e2ebench" && build -o "$out/e2ebench" .)
exec "$out/e2ebench" --daemon "$out/edgecolord" --work "$out" "$@"
