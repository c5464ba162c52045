#!/usr/bin/env bash
# Builds mpcperf from the sources of the checkout this is run from and runs
# it with the given arguments, e.g.
#
#   bash cmd/mpcperf/run.sh --workload ulam-large --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the go command's
# telemetry counters (kept under the user's config directory), the binary and
# the benchmark's scratch files all stay under .bench_build/ in that root. The
# build fails (and so does this script, before printing any result) when the
# repository's sources are not there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/cmd/mpcperf" && go build -o "$build/mpcperf" .) >&2
exec "$build/mpcperf" -dir "$build" "$@"
