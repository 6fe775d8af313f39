#!/usr/bin/env bash
# Builds the tier-1 test suite under ThreadSanitizer and runs it. The
# host-parallel task execution (work-stealing pool + shared substrate) must
# come back clean: any data race here can silently break the simulator's
# bit-for-bit determinism guarantee.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DSHARK_SANITIZE=thread -DCMAKE_CXX_FLAGS="-Werror"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target shark_tests

# halt_on_error: fail fast, and second_deadlock_stack for lock diagnostics.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "TSan: all tests clean"
