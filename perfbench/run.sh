#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root; every argument is passed to the benchmark binary:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# The build cache, the binary and the traced run's spans stay under
# .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's caches, temporary files and user config (where its
# telemetry counters go) all stay inside .bench_build.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

if [ "${1:-}" = compare ]; then
	exec "$build/perfbench" "$@"
fi
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --commit "$commit" --spans-dir "$build/spans" "$@"
