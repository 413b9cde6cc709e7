#!/usr/bin/env bash
# benchmark/run.sh — build the harness from source and run it.
#
# This is BENCHMARK.json's command: the driver calls it from the root of a
# checkout as `bash benchmark/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`. Everything the build and the run write (Go build cache, the
# binary, scratch stores and journals, reports, traces) stays under
# .bench_build/ in the checkout. The first call in a checkout compiles the
# standard library into that cache; later calls reuse it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
if [[ -z "${SFBENCH_COMMIT:-}" ]]; then
    SFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export SFBENCH_COMMIT

(cd "$here" && go build -o "$build/sfbench" .)
cd "$root"
exec "$build/sfbench" "$@"
