#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash bench/run.sh --workload heavy-cell --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, stores)
# goes under $CARGO_TARGET_DIR, or .bench_build when it is unset.
set -u
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp TMPDIR=$out/gotmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
if ! (cd "$here" && go build -o "$out/ompss-perfbench" .); then
	echo "bench: build failed (the benchmark needs the repository's module one directory up)" >&2
	exit 2
fi
exec "$out/ompss-perfbench" -workdir "$out/work" "$@"
