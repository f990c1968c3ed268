#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags. Run it from the repository root:
#
#   bash bench/run.sh -workload paper -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run write stays under the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
# The go command keeps its settings and telemetry counters in the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if ! command -v go >/dev/null && [ -x /usr/local/go/bin/go ]; then
	PATH=$PATH:/usr/local/go/bin
fi

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
