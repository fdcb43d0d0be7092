#!/usr/bin/env bash
# Builds the ladder benchmark from source into .bench_build/ at the root of
# the checkout and runs it with the arguments given. Everything the build and
# the run write (build cache, binary, data dirs, span files) stays under
# .bench_build/, so the checkout is the only directory touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/ladder" .)
exec "$out/ladder" "$@"
