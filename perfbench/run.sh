#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload search_angular --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh compare base.jsonl head.jsonl
#
# The build cache, the binary and every scratch file stay under
# .bench_build/ in the current directory; nothing is downloaded.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
