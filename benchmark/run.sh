#!/usr/bin/env bash
# Build symbench from source and measure one workload:
#
#   bash benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#
# Run it from the root of the repository.  The build goes to
# .bench_build; traces, journals and logs of the samples go to
# .bench_build/symbench.  The last line of standard output is the JSON
# result; the build's output goes to standard error.
set -euo pipefail

build=.bench_build
dune build --root . --build-dir "$build" ./benchmark/symbench.exe 1>&2
exec "$build/default/benchmark/symbench.exe" bench --dir "$build/symbench" "$@"
