#!/usr/bin/env bash
# Builds goofi_benchmark from this checkout's sources (incrementally, in
# $CARGO_TARGET_DIR or .bench_build) and runs it with the given
# arguments. Build output goes to stderr, so the benchmark's last line
# of standard output is its JSON result. See goofi_benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-$root/.bench_build}"
jobs="$(nproc)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

# Configure every time: it is cheap when the cache is current, and CMake
# refuses a build directory configured from another checkout, so a
# shared build directory can never run the other tree's benchmark.
cmake -S "$root/goofi_benchmark" -B "$build" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --target goofi_benchmark -j "$jobs" >&2
exec "$build/goofi_benchmark" "$@"
