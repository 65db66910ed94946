#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh --workload study --seed 42 --seconds 30 --trace 0
#
# The Go build cache, the binaries, the toolchain's own config and
# telemetry files, and every temporary file stay under .bench_build/ at
# the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
