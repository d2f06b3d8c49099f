#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload service-zipf --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the current directory, and the Go toolchain is kept
# offline and on the installed version.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
