#!/usr/bin/env bash
# Builds the benchmark harness and the server from this checkout and runs
# one workload:
#
#   bash bench/run.sh --workload ask_cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# binaries, the Go build cache and the toolchain's config dir under
# .bench_build/, span files and per-op records under bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Without the program there is nothing to measure: say so before anything
# is started or written.
for src in go.mod cmd/chatiyp-server/main.go bench/main.go; do
	if [[ ! -f "$src" ]]; then
		echo "bench/run.sh: $src is not in this checkout; the benchmark builds the program from source" >&2
		exit 2
	fi
done

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
# The go command otherwise starts a detached telemetry child of its own
# (once a day per config dir, so on the first build of every checkout)
# that outlives the run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/chatiyp-server" ./cmd/chatiyp-server
go build -o "$build/chatiyp-bench" ./bench

exec "$build/chatiyp-bench" -server "$build/chatiyp-server" "$@"
