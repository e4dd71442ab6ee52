#!/usr/bin/env bash
# Builds rtbench from the checkout's sources and runs it with the given
# flags. Run it from the root of the repository:
#
#   bash bench/rtbench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's own state files all go under
# .bench_build/ in the checkout, so the build reads and writes nothing
# outside it. The build fails, and nothing is run, when the repository's
# module is not there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/bench/rtbench" && go build -o "$out/rtbench" .)
exec "$out/rtbench" "$@"
