#!/usr/bin/env bash
# Builds the shipped programs (pcstall-exp, pcstall-serve) and the
# perfbench binary from this checkout, then runs perfbench with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-cold --seed 3 --seconds 40 --trace 0
#
# Run it from the root of a pcstall checkout. Every build artifact, the
# Go build cache included, stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pcstall-exp || ! -d cmd/pcstall-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a pcstall checkout (program sources not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"

go build -o "$build/bin/" ./cmd/pcstall-exp ./cmd/pcstall-serve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/runs" "$@"
