#!/usr/bin/env bash
# Builds abstractbench from the checkout's sources and runs it with the given
# arguments, e.g.
#   bash abstractbench/run.sh --workload zlight-paced --seed 1 --seconds 20 --trace 0
# Run it from the root of the repository. Build caches stay under
# .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
cache="$root/.bench_build/abstractbench"
mkdir -p "$cache"
export GOCACHE="$cache/gocache" GOMODCACHE="$cache/gomodcache" GOPATH="$cache/gopath"
export XDG_CONFIG_HOME="$cache/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/abstractbench" && go build -o "$cache/abstractbench" .)
exec "$cache/abstractbench" "$@"
