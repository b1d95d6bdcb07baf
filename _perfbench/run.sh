#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build/ in the checkout.
#
#   bash _perfbench/run.sh --workload oltp --seed 1 --seconds 10 --trace 0
#   bash _perfbench/run.sh --selfcheck --runs 5
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C _perfbench build -trimpath -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
