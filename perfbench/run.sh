#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload mc-high-nmap --seed 42 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ at the root of the checkout. The binary is built with
# PGO off, so both sides of an A/B compile the same way whatever
# default.pgo holds.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -C perfbench -pgo=off -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
