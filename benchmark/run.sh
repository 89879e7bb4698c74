#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every file
# the build writes (Go build cache, temp dirs, the binary) stays under
# .bench_build/ at the checkout root; nothing is read from or written to the
# user's Go caches. Arguments are passed through to the benchmark binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/cloudiq-bench" .)
exec "$out/cloudiq-bench" "$@"
