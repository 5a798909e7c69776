#!/usr/bin/env bash
# Builds the FLARE benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash flarebench/run.sh --workload hot-serve --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, binary, the db-durable store directory).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/flarebench/go.mod" ]]; then
	echo "flarebench: run from the root of a FLARE checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off GOPROXY=off GOSUMDB=off \
	XDG_CONFIG_HOME="$out/config" CGO_ENABLED=0
(cd "$root/flarebench" && go build -o "$out/flarebench" .) >&2
exec "$out/flarebench" -workdir "$out" "$@"
