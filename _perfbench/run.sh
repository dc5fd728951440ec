#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it. Run from the repository root:
#
#	bash _perfbench/run.sh --workload overwrite --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under the output directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the module
# cache, the go command's config and telemetry files, temporary build
# directories, the benchmark binary, and the traced run's span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/home/go"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$root/_perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -spandir "$out" "$@"
