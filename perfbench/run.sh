#!/usr/bin/env bash
# Builds the payload-simulator benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload clean --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build and cache file stays under
# .bench_build/ in that root; the last line of standard output is the JSON
# result (see perfbench/doc.go).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root: no simulator source here" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" "$@"
