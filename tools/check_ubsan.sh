#!/usr/bin/env bash
# Builds the tier-1 test suite under UndefinedBehaviorSanitizer and runs it.
# The memory arbiter does a lot of unsigned budget arithmetic (headroom,
# ledger releases, spill-partition counts) where wraparound bugs hide, and
# the cost model mixes double/uint64 conversions — UBSan's signed-overflow,
# shift and float-cast checks cover exactly that.
#
# Usage: tools/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . -DSHARK_SANITIZE=undefined -DCMAKE_CXX_FLAGS="-Werror"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target shark_tests --target shark_fuzz

UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Differential fuzz under UBSan: the nasty-value corpus plus a fixed seed
# sweep drive exactly the double<->int64 casts and overflow paths the
# sanitizer is here to police.
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  "$BUILD_DIR"/tools/fuzz/shark_fuzz --replay tests/fuzz_corpus
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  "$BUILD_DIR"/tools/fuzz/shark_fuzz --seed-start 1 --seeds "${UBSAN_FUZZ_SEEDS:-100}"

echo "UBSan: all tests clean"
