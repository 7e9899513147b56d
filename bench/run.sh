#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# flags, e.g. `bash bench/run.sh --workload ckpt-stream --seed 1
# --seconds 10 --trace 0`. Run it from the repository root. Everything
# the Go toolchain writes (build cache, module cache, temporary files,
# its own config and telemetry) stays under the build directory inside
# the checkout: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
