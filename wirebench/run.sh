#!/usr/bin/env bash
# Builds wdmserve from the tree under test and the wirebench generator,
# then runs one benchmark workload. Run from the repository root:
#
#   bash wirebench/run.sh --workload nsfnet-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/wdmserve ] || [ ! -f wirebench/go.mod ]; then
	echo "wirebench: run from the repository root (go.mod, cmd/wdmserve and wirebench/ not found)" >&2
	exit 1
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOENV=off
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

go build -o "$out/wdmserve" ./cmd/wdmserve
(cd wirebench && go build -o "$out/wirebench" .)
exec "$out/wirebench" -server "$out/wdmserve" -out "$out" "$@"
