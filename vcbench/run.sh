#!/usr/bin/env bash
# Builds vcbench from the sources of the checkout it sits in and runs it
# with the given arguments, from the checkout's root. The Go build cache,
# temporary files and the binary all stay under .bench_build in the
# checkout.
#
#   bash vcbench/run.sh --workload translate-perline --seed 42 --seconds 15 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off \
	GOFLAGS= GOWORK=off

go -C "$root/vcbench" build -o "$build/vcbench" .
cd "$root"
exec "$build/vcbench" "$@"
