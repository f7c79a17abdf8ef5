#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it; every
# argument is passed through (see main.go for the modes). The Go build cache
# and the binaries live in .bench_build/ inside the checkout, so nothing is
# written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}" GOTMPDIR="${GOTMPDIR:-$root/.bench_build/gotmp}" GOTOOLCHAIN=local
mkdir -p .bench_build/bin "$GOTMPDIR"
go build -C bench -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" "$@"
