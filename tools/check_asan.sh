#!/usr/bin/env bash
# Builds the tier-1 test suite under AddressSanitizer (+ leak checking) and
# runs it. The scheduler's trace recording holds raw StageTrace/TaskTrace
# pointers across a growing stage vector, and fault injection exercises
# erase-while-iterating paths — exactly the kind of code ASan keeps honest.
#
# Usage: tools/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DSHARK_SANITIZE=address -DCMAKE_CXX_FLAGS="-Werror"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target shark_tests

ASAN_OPTIONS="halt_on_error=1 detect_stack_use_after_return=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "ASan: all tests clean"
