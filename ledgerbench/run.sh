#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json).
# Builds the harness and ./cmd/ledgerdb-server from source into
# .bench_build/ at the repository root, then hands every argument to the
# harness. Everything the Go toolchain writes stays under .bench_build/,
# so a run touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root" && go build -o "$build/ledgerdb-server" ./cmd/ledgerdb-server) >&2
(cd "$here" && go build -o "$build/ledgerbench" .) >&2
cd "$root"
exec "$build/ledgerbench" -root "$root" -server "$build/ledgerdb-server" "$@"
