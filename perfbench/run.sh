#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload cip-train --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root (Go build cache, binary, traces, checkpoints).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off
export CGO_ENABLED=0
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
