#!/usr/bin/env bash
# Builds `bncg` and the benchmark client from this checkout, then runs
# the client with the given arguments. Run it from the repository root:
#
#   bash servebench/run.sh --workload check-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and both binaries.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root" && go build -o "$out/bin/bncg" ./cmd/bncg)
(cd "$root/servebench" && go build -o "$out/bin/servebench" .)
cd "$root"
exec "$out/bin/servebench" -root "$root" -bncg "$out/bin/bncg" "$@"
