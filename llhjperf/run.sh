#!/usr/bin/env bash
# Builds the llhjperf benchmark from the enclosing checkout and runs it.
# Usage (from the checkout root):
#   bash llhjperf/run.sh --workload equi-sharded --seed 1 --seconds 10 --trace 0
# Build outputs and scratch files stay under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOENV=off
export CGO_ENABLED=0

if [ ! -f "$root/go.mod" ]; then
	echo "llhjperf: no go.mod at $root; run from a checkout of the engine" >&2
	exit 2
fi
mkdir -p "$build"

# The commit tag: git when the checkout is a repository, otherwise a
# digest of the engine's Go sources and module file.
commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)"
if [ -z "$commit" ]; then
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi

(cd "$here" && go build -o "$build/llhjperf" .)
cd "$root"
exec "$build/llhjperf" -commit "$commit" -workdir "$build/llhjperf-work" "$@"
