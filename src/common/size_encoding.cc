#include "common/size_encoding.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace shark {

namespace {

// base^254 = kMaxSize  =>  base = kMaxSize^(1/254) ~= 1.103.
const double kLogBase = std::log(static_cast<double>(SizeEncoding::kMaxSize)) / 254.0;

// The defining formula: code-1 = ln(bytes)/kLogBase, rounded to the nearest
// code. Monotone non-decreasing in `bytes`, which is what lets the tables
// below reproduce it exactly.
uint8_t EncodeByFormula(uint64_t bytes) {
  if (bytes == 0) return 0;
  if (bytes >= SizeEncoding::kMaxSize) return 255;
  double code = std::log(static_cast<double>(bytes)) / kLogBase + 1.0;
  long rounded = std::lround(code);
  if (rounded < 1) rounded = 1;
  if (rounded > 255) rounded = 255;
  return static_cast<uint8_t>(rounded);
}

struct Tables {
  // first[k - 1] = the smallest size whose code is at least k (k = 1..255),
  // kMaxSize when only saturation reaches k. A size's code is the number of
  // these thresholds at or below it; codes the formula skips share their
  // successor's threshold.
  std::array<uint64_t, 255> first{};
  std::array<uint64_t, 256> decoded{};

  Tables() {
    for (int k = 1; k <= 255; ++k) {
      uint64_t lo = 1, hi = SizeEncoding::kMaxSize;  // answer in [lo, hi]
      while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (EncodeByFormula(mid) >= k) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      first[static_cast<size_t>(k - 1)] = lo;
    }
    for (int code = 1; code <= 255; ++code) {
      double v = std::exp(kLogBase * static_cast<double>(code - 1));
      decoded[static_cast<size_t>(code)] = static_cast<uint64_t>(std::llround(v));
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

}  // namespace

uint8_t SizeEncoding::Encode(uint64_t bytes) {
  if (bytes >= kMaxSize) return 255;
  const auto& first = GetTables().first;
  return static_cast<uint8_t>(
      std::upper_bound(first.begin(), first.end(), bytes) - first.begin());
}

uint64_t SizeEncoding::Decode(uint8_t code) { return GetTables().decoded[code]; }

}  // namespace shark
