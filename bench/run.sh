#!/usr/bin/env bash
# Builds megabench from the checkout's sources and runs it with the given
# arguments. The driver lets a run read and write only inside its checkout,
# so everything the Go tool would keep under $HOME or /tmp goes under
# .bench_build/ at the root of the checkout instead: build cache, module
# path, temporary build directories, and the telemetry counters it files
# under the user's config directory. No env file is read and no toolchain
# downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off
(cd "$here" && go build -o "$build/megabench" ./cmd/megabench) >&2
exec "$build/megabench" -spec "$root/BENCHMARK.json" -out "$here/out" "$@"
