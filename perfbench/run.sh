#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload tcp-query --seed 1 --seconds 20 --trace 0
# Run from the repository root. The Go build cache, the binary and the
# traced spans all stay under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off
if ! (cd "$here" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 3
fi
exec "$out/perfbench" "$@"
