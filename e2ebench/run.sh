#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Every build artefact and cache stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
