#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#
#   bash dftbench/run.sh --workload grade|flow|service --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache
# and traces go under .bench_build in the root, so nothing is read or
# written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/dftbench/go.mod" ]]; then
	echo "dftbench: run from the repository root; the toolkit source is missing here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/dftbench" && go build -o "$build/dftbench" .)
exec "$build/dftbench" --root "$root" "$@"
