#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes (binary, Go build cache, module
# bookkeeping, temp files) stays under .bench_build/ in the checkout; the
# binary puts its own scratch files (WALs, snapshots) next to itself.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
