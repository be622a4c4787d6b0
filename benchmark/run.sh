#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, its own config) is kept under benchmark/.build, inside the
# checkout, and the binary is rebuilt on every call (a no-op when nothing
# changed), so a run never measures a stale build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/pegmark" .)
cd "$here/.."
exec "$build/pegmark" "$@"
